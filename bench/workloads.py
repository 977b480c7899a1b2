"""The benchmark's three workloads, run against the source tree in ``src/``.

Every workload is a closed loop with one client: each operation starts
after the previous one ended, in one process at a time.

``cli-cold``
    Rounds of five short CLI calls on a 400-row CSV (simulate, fit, split,
    validate, curves), each in a fresh interpreter.  Interpreter start and
    ``import logitboot`` dominate; no bootstrap runs.
``boot-study``
    In-process studies on 400-row data sets: ``bootstrap_fit`` with 1000
    replicates, percentile and Wald intervals, one jackknife and BCa with
    the jackknife acceleration, i.e. the CLI's ``--ci-method all`` path.
    Per-fit overhead at small n dominates; no import, CSV or CLI work.
``large-n``
    CLI calls on a 200 000-row CSV (fit, validate, simulate) and a
    percentile bootstrap with 120 replicates on a 20 000-row CSV.  Row-wise
    CSV parsing and record construction dominate.

A run measures whole rounds while the next one is expected to end within
``seconds`` (at least two executions of every CLI call, so repeated output
can be compared byte for byte).  A traced run pairs every round with a
traced copy of itself; end-to-end metrics come from untraced runs only.

Every timed interval of an untraced run is bracketed by the :class:`Pace`
reference task, and the end-to-end times are scaled by it to the
reference machine's speed (see :meth:`Pace.scale`).
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import oracle
from inputs import COLUMNS, GOLDEN, draw_study, write_csv
from tracing import Tracer

GOLDEN_ARG = ",".join(repr(c) for c in GOLDEN)
SOURCE_DATE_EPOCH = "1700000000"
CHILD_TIMEOUT_S = 150
SETUP_SAMPLES = 5
# Replicate ids rebuilt and refitted by the oracle in every study.
SPOT_CHECKS = 4
INTERVAL_NAMES = ("percentile_ci", "wald_ci", "bca_ci", "acceleration_from_jackknife")
VALIDATION_NAMES = ("split_sample_fit", "holdout_validate", "probability_curves")
STUDY_NAMES = ("bootstrap_fit", "jackknife_estimates") + INTERVAL_NAMES
# Per-layer metrics taken from spans, and the calls each one needs.
LAYER_CALLS = {
    "cli.self_s": ("main",),
    "cli.stdout_bytes": ("main",),
    "data_io.load_csv_s": ("load_csv",),
    "data_io.load_csv_rows_per_s": ("load_csv",),
    "data_io.encode_s": ("encode",),
    "data_io.simulate_s": ("simulate",),
    "data_io.save_csv_s": ("save_csv",),
    "model_core.fit_mle_s": ("fit_mle",),
    "model_core.fit_mle_calls": ("fit_mle",),
    "model_core.iterations_per_fit": ("fit_mle",),
    "model_core.fit_rows_per_s": ("fit_mle",),
    "inference.bootstrap_fit_s": ("bootstrap_fit",),
    "inference.self_s": ("bootstrap_fit",),
    "inference.resample_indices_s": ("resample_indices",),
    "inference.replicates_kept_ratio": ("bootstrap_fit",),
    "inference.jackknife_s": ("jackknife_estimates",),
    "inference.jackknife_kept_ratio": ("jackknife_estimates",),
    "inference.intervals_s": INTERVAL_NAMES,
    "validation.split_sample_fit_s": ("split_sample_fit",),
    "validation.holdout_validate_s": ("holdout_validate",),
    "validation.probability_curves_s": ("probability_curves",),
    "validation.self_s": VALIDATION_NAMES,
}
SIZED_FIT_METRICS = ("model_core.fit_mle_s", "model_core.iterations_per_fit",
                     "model_core.fit_rows_per_s")


class Pace:
    """A fixed reference task that tracks how fast the host runs right now.

    On a shared host the speed of a core changes by up to a factor of two
    from one second to the next (other tenants share its cores and caches),
    so raw wall times of two runs of the same code differ.  The task is the oracle's NumPy IRLS fit on fixed
    bootstrap resamples of a fixed 400-row data set; it never calls
    logitboot, so a program change cannot move it.  Each timed interval is
    bracketed by one sample before and one after, and its wall time is
    scaled by ``NOMINAL_S`` over their mean: the time the interval would
    have taken on the reference machine at its typical speed.
    """

    # Median time of one sample on the reference machine (2 vCPU Xeon):
    # the median of the per-run medians of 15 runs of the three workloads.
    NOMINAL_S = 0.0224
    CHUNKS = 5
    FITS_PER_CHUNK = 8

    def __init__(self):
        design, response = draw_study((0, 999), 400)
        self.problems = [
            (design[idx], response[idx])
            for idx in (oracle.resample(0, r, 400)
                        for r in range(self.CHUNKS * self.FITS_PER_CHUNK))]
        self.samples: list[float] = []

    def sample(self) -> float:
        """Time the task; the median chunk, so one preemption does not count."""
        chunks = []
        for lo in range(0, len(self.problems), self.FITS_PER_CHUNK):
            start = time.monotonic()
            for design, response in self.problems[lo:lo + self.FITS_PER_CHUNK]:
                oracle.fit(design, response)
            chunks.append(time.monotonic() - start)
        value = statistics.median(chunks) * self.CHUNKS
        self.samples.append(value)
        return value

    def scale(self, before: float, after: float) -> float:
        """Factor that turns a wall time bracketed by two samples into reference time."""
        return self.NOMINAL_S / ((before + after) / 2)


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the defaults are the benchmark, smaller ones its tests."""

    cli_n: int = 400
    split_sizes: tuple = (100, 175, 250, 325, 400)
    train_count: int = 300
    study_n: int = 400
    replicates: int = 1000
    large_n: int = 200_000
    large_train: int = 150_000
    boot_n: int = 20_000
    boot_replicates: int = 120
    speedup_replicates: int = 400


@dataclass
class Call:
    """One CLI operation and the oracle check of its JSON output."""

    name: str
    argv: list
    check: Callable[[dict], list]
    rows: int = 0
    fits: int = 0


@dataclass
class Op:
    name: str
    latency: float
    problems: list
    traced: bool
    rows: int = 0
    fits: int = 0
    rss_kb: int = 0
    stdout_bytes: int = 0
    spans: list = field(default_factory=list)
    # Pace.scale of the interval; the end-to-end metrics use latency * scale.
    scale: float = 1.0

    @property
    def scaled(self) -> float:
        return self.latency * self.scale


@dataclass
class Child:
    start: float
    end: float
    code: int
    stdout: bytes
    stderr: bytes
    rss_kb: int


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """The 75th percentile latency, with the number of samples above it.

    A run holds 8 to 25 operations, too few for a percentile above the
    median with ten samples beyond it.  A fixed percentile keeps the
    statistic the same from run to run whatever the sample count; the 90th
    rests on the top two or three samples and spread up to twice as much
    between runs.
    """
    if len(values) < 2:
        return values[0], 0
    value = statistics.quantiles(values, n=4, method="inclusive")[-1]
    return value, sum(v > value for v in values)


def annotate(spans: list) -> list:
    """Add duration, self time and nested fit time to spans of one process."""
    for span in spans:
        span["dur"] = span["end"] - span["start"]
        span["child"] = 0.0
        span["fit_child"] = 0.0
    for span in spans:
        if span["parent"] is not None:
            parent = spans[span["parent"]]
            parent["child"] += span["dur"]
            if span["name"].endswith(".fit_mle"):
                parent["fit_child"] += span["dur"]
    for span in spans:
        span["self"] = span["dur"] - span["child"]
    return spans


class Bench:
    """One benchmark run: inputs, child processes, operations and metrics."""

    def __init__(self, root: Path, work: Path, seed: int, seconds: float,
                 traced: bool, sizes: Sizes = Sizes()):
        self.root = root
        self.work = work
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.sizes = sizes
        self.ops: list[Op] = []
        self.rounds: list[float] = []
        self.overheads: list[float] = []
        self.reference: dict[str, bytes] = {}
        self.info: dict = {}
        self.pace = Pace()
        self.env = {k: v for k, v in os.environ.items() if k != "LOGITBOOT_SEED"}
        self.env.update(PYTHONPATH=str(root / "src"), SOURCE_DATE_EPOCH=SOURCE_DATE_EPOCH)

    # ------------------------------------------------------------ processes

    def spawn(self, args) -> Child:
        """Run a child to completion; returns its times, output and max RSS."""
        out_path, err_path = self.work / "child.out", self.work / "child.err"
        with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
            start = time.monotonic()
            proc = subprocess.Popen(args, stdout=out, stderr=err, cwd=self.work,
                                    env=self.env)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                code, rss = os.waitstatus_to_exitcode(status), usage.ru_maxrss
            except ChildProcessError:
                code, rss = proc.wait(), 0
            finally:
                timer.cancel()
            end = time.monotonic()
            proc.returncode = code
            out.seek(0)
            err.seek(0)
            return Child(start, end, code, out.read(), err.read(), rss)

    def measure_setup(self) -> None:
        """Fresh-interpreter ``import logitboot`` times and the import split.

        Each sample also splits off interpreter start (launch to the first
        statement) and exit (import done to the parent's ``wait``), which
        every CLI call pays too.
        """
        stamp = ("import time; first = time.monotonic(); import logitboot; "
                 "print(repr(first), repr(time.monotonic()))")
        samples = {"setup": [], "setup_scaled": [], "start": [], "exit": []}
        for _ in range(SETUP_SAMPLES):
            before = self.pace.sample()
            child = self.spawn([sys.executable, "-c", stamp])
            after = self.pace.sample()
            if child.code != 0:
                raise RuntimeError(f"import logitboot failed: {child.stderr[-500:]!r}")
            first, imported = map(float, child.stdout.split())
            samples["setup"].append(imported - child.start)
            samples["setup_scaled"].append(
                (imported - child.start) * self.pace.scale(before, after))
            samples["start"].append(first - child.start)
            samples["exit"].append(child.end - imported)
        self.setup_samples = samples
        runs = [parse_importtime(self.spawn(
            [sys.executable, "-X", "importtime", "-c", "import logitboot"]).stderr)
            for _ in range(3 if self.traced else 1)]
        self.imports = {key: median([r[key] for r in runs]) for key in runs[0]}

    # ------------------------------------------------------------------ CLI

    def cli_op(self, call: Call, traced: bool) -> Op:
        spans_path = self.work / "spans.json"
        if traced:
            args = [sys.executable, str(self.root / "bench" / "child.py"),
                    str(spans_path), f"{call.name}-{len(self.ops)}", "--", *call.argv]
        else:
            args = [sys.executable, "-m", "logitboot", *call.argv]
            before = self.pace.sample()
        child = self.spawn(args)
        scale = 1.0 if traced else self.pace.scale(before, self.pace.sample())
        problems = []
        if child.code != 0:
            problems.append(f"exit code {child.code}: {child.stderr[-300:]!r}")
        doc = oracle.parse_doc(child.stdout)
        if doc is None:
            problems.append("stdout is not one JSON document")
        else:
            try:
                problems += call.check(doc)
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                problems.append(f"malformed output: {exc!r}")
        if child.stdout != self.reference.setdefault(call.name, child.stdout):
            problems.append("stdout differs from an earlier identical call")
        spans = []
        if traced and spans_path.exists():
            record = json.loads(spans_path.read_text())
            spans_path.unlink()
            spans = record["spans"] + [
                {"name": "process.start", "start": child.start, "end": record["first"]},
                {"name": "process.exit", "start": record["dumped"], "end": child.end},
            ]
            for span in spans[-2:]:
                span.update(op=record["spans"][0]["op"], parent=None)
            annotate(spans)
        return Op(call.name, child.end - child.start, problems, traced,
                  rows=call.rows, fits=call.fits, rss_kb=child.rss_kb,
                  stdout_bytes=len(child.stdout), spans=spans, scale=scale)

    def more_rounds(self, started: float, done: int, minimum: int) -> bool:
        """Whether another round fits in ``seconds`` (rounds are never cut)."""
        now = time.monotonic()
        return done < minimum or now + (now - started) / done <= started + self.seconds

    def run_cli_rounds(self, calls: list[Call]) -> None:
        started = time.monotonic()
        executions = 0
        while self.more_rounds(started, executions, 2):
            walls = {}
            for traced in (False, True) if self.traced else (False,):
                ops = [self.cli_op(call, traced) for call in calls]
                self.ops += ops
                walls[traced] = sum(op.latency for op in ops)
                if not traced:
                    self.rounds.append(sum(op.scaled for op in ops))
                executions += 1
            if self.traced:
                self.overheads.append(walls[True] - walls[False])

    # -------------------------------------------------------------- studies

    def run_study(self, lib, data, master_seed: int, replicates: int) -> dict:
        boot = lib.bootstrap_fit(data, None, replicates=replicates,
                                 master_seed=master_seed, workers=1)
        width = data.n_parameters
        study = {"bootstrap": boot}
        study["percentile"] = [lib.percentile_ci(boot, j) for j in range(width)]
        study["wald"] = lib.wald_ci(boot.original_fit)
        loo = lib.jackknife_estimates(data, None)
        study["jackknife"] = loo
        study["bca"] = [
            lib.bca_ci(boot, data, None, j,
                       acceleration=lib.acceleration_from_jackknife(loo[:, j]))
            for j in range(width)
        ]
        return study

    def study_op(self, k, design, response, traced, tracer=None) -> Op:
        import logitboot

        data = logitboot.EncodedDataset(design, response, COLUMNS)
        master_seed = int(np.random.SeedSequence((self.seed, k)).generate_state(1)[0])
        replicates = self.sizes.replicates
        if traced:
            tracer.op = f"study-{k}"
            lib = SimpleNamespace(**{
                name: tracer.wrap(f"bench.study.{name}", getattr(logitboot, name))
                for name in STUDY_NAMES})
            first = len(tracer.spans)
        else:
            lib = logitboot
            before = self.pace.sample()
        start = time.monotonic()
        try:
            with tracer.installed() if traced else contextlib.nullcontext():
                study = self.run_study(lib, data, master_seed, replicates)
        except Exception as exc:  # a failed operation is counted, not fatal
            return Op("study", time.monotonic() - start, [f"raised {exc!r}"], traced)
        latency = time.monotonic() - start
        scale = 1.0 if traced else self.pace.scale(before, self.pace.sample())
        spot = np.random.default_rng(master_seed).choice(replicates, SPOT_CHECKS - 2,
                                                         replace=False)
        ids = [0, replicates - 1, *spot.tolist()]
        problems = oracle.check_study(study, design, response, master_seed,
                                      replicates, ids)
        fits = 1 + study["bootstrap"].converged + study["jackknife"].shape[0]
        op = Op("study", latency, problems, traced, rows=response.size, fits=fits,
                scale=scale)
        if traced:
            op.spans = tracer.spans[first:]
        return op

    def run_studies(self) -> None:
        import logitboot  # noqa: F401  (imported before the loop's clock starts)

        tracer = Tracer() if self.traced else None
        started = time.monotonic()
        k = 0
        while self.more_rounds(started, k, 1):
            design, response = draw_study((self.seed, 100 + k), self.sizes.study_n)
            untraced = self.study_op(k, design, response, False)
            self.ops.append(untraced)
            self.rounds.append(untraced.scaled)
            if self.traced:
                traced = self.study_op(k, design, response, True, tracer)
                self.ops.append(traced)
                self.overheads.append(traced.latency - untraced.latency)
            k += 1
        if tracer is not None:
            annotate(tracer.spans)
        self.peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    # ------------------------------------------------------------ workloads

    def csv_input(self, name: str, stream: int, n: int):
        design, response = draw_study((self.seed, stream), n)
        path = self.work / name
        write_csv(path, design, response)
        path.read_bytes()  # warm the page cache before timing
        return path, design, response

    def cli_cold_calls(self) -> list[Call]:
        s = self.sizes
        path, x, y = self.csv_input("cli.csv", 1, s.cli_n)
        sim_seed = self.seed % 2**31
        sizes = ",".join(str(m) for m in s.split_sizes)
        return [
            Call("simulate", ["simulate", "--coefficients", GOLDEN_ARG, "--n", str(s.cli_n),
                              "--seed", str(sim_seed), "--out", "sim.csv"],
                 lambda d: oracle.check_simulate_doc(d, self.work / "sim.csv", s.cli_n,
                                                     sim_seed)),
            Call("fit", ["fit", "--input", path.name],
                 lambda d: oracle.check_fit_doc(d, x, y), rows=s.cli_n, fits=1),
            Call("split", ["split", "--input", path.name, "--sizes", sizes],
                 lambda d: oracle.check_split_doc(d, x, y, s.split_sizes),
                 fits=len(s.split_sizes)),
            Call("validate", ["validate", "--input", path.name,
                              "--train-count", str(s.train_count)],
                 lambda d: oracle.check_validate_doc(d, x, y, s.train_count),
                 rows=s.cli_n, fits=1),
            Call("curves", ["curves", "--coefficients", GOLDEN_ARG],
                 oracle.check_curves_doc),
        ]

    def large_n_calls(self) -> list[Call]:
        s = self.sizes
        big, x, y = self.csv_input("big.csv", 2, s.large_n)
        boot, bx, by = self.csv_input("boot.csv", 3, s.boot_n)
        sim_seed = (self.seed + 1) % 2**31
        boot_seed = (self.seed + 2) % 2**31
        expected = oracle.expected_bootstrap(bx, by, s.boot_replicates, boot_seed)
        return [
            Call("fit", ["fit", "--input", big.name],
                 lambda d: oracle.check_fit_doc(d, x, y), rows=s.large_n, fits=1),
            Call("validate", ["validate", "--input", big.name,
                              "--train-count", str(s.large_train)],
                 lambda d: oracle.check_validate_doc(d, x, y, s.large_train),
                 rows=s.large_n, fits=1),
            Call("simulate", ["simulate", "--coefficients", GOLDEN_ARG,
                              "--n", str(s.large_n), "--seed", str(sim_seed),
                              "--out", "sim.csv"],
                 lambda d: oracle.check_simulate_doc(d, self.work / "sim.csv",
                                                     s.large_n, sim_seed)),
            Call("bootstrap", ["bootstrap", "--input", boot.name,
                               "--replicates", str(s.boot_replicates),
                               "--ci-method", "percentile", "--seed", str(boot_seed)],
                 lambda d: oracle.check_bootstrap_doc(d, bx, by, s.boot_replicates,
                                                      expected),
                 fits=1 + s.boot_replicates),
        ]

    def run(self, workload: str) -> None:
        if workload == "boot-study":
            self.measure_setup()
            self.kernel_n = self.sizes.study_n
            self.run_studies()
            return
        calls = (self.cli_cold_calls() if workload == "cli-cold"
                 else self.large_n_calls())
        self.kernel_n = self.sizes.cli_n if workload == "cli-cold" else self.sizes.large_n
        self.measure_setup()
        self.run_cli_rounds(calls)
        self.peak_rss_kb = max(op.rss_kb for op in self.ops)

    # -------------------------------------------------------------- metrics

    def end_to_end(self) -> dict:
        ops = [op for op in self.ops if not op.traced]
        good = [op for op in ops if not op.problems]
        busy = sum(op.scaled for op in ops)
        latencies = [op.scaled for op in ops]
        loaded = [op for op in good if op.rows]
        value, beyond = tail(latencies)
        self.info["latency_tail"] = {"percentile": 75, "samples": len(latencies),
                                     "beyond": beyond}
        raw = [op.latency for op in ops]
        self.info["unscaled"] = {"setup_s": median(self.setup_samples["setup"]),
                                 "latency_p50_s": median(raw),
                                 "latency_tail_s": tail(raw)[0]}
        return {
            "setup_s": (median(self.setup_samples["setup_scaled"]), "s"),
            "wall_s": (statistics.fmean(self.rounds), "s"),
            "ops_per_s": (len(ops) / busy, "1/s"),
            "latency_p50_s": (median(latencies), "s"),
            "latency_tail_s": (value, "s"),
            "refits_per_s": (sum(op.fits for op in good) / busy, "1/s"),
            "rows_per_s": (median([op.rows / op.scaled for op in loaded]), "1/s"),
            "peak_rss_mb": (self.peak_rss_kb / 1024.0, "MB"),
        }

    def per_layer(self) -> dict:
        """Per-layer metrics from the spans of this workload's own operations.

        A metric whose layer these operations never call reads 0 and is
        listed under ``not_applicable`` in the details line.
        """
        traced = [op for op in self.ops if op.traced]
        spans = [span for op in traced for span in op.spans]

        def spans_of(*names):
            return [s for s in spans if s["name"].rsplit(".", 1)[-1] in names]

        def med(name, key="dur"):
            return median([s[key] for s in spans_of(name)])

        def ratio(part, whole):
            return part / whole if whole else 0.0

        def rate(found, key):
            return ratio(sum(s[key] for s in found), sum(s["dur"] for s in found))

        fits = [s for s in spans_of("fit_mle") if "iterations" in s]
        # Fits at the workload's model size n: the top-level fit on large-n,
        # the original and replicate fits on boot-study.
        sized = [dict(s, work=s["n"] * s["iterations"]) for s in fits
                 if s.get("n") == self.kernel_n]
        loads = spans_of("load_csv")
        boots = spans_of("bootstrap_fit")
        jacks = spans_of("jackknife_estimates")
        by_op = {}
        for s in spans_of(*INTERVAL_NAMES):
            by_op[s["op"]] = by_op.get(s["op"], 0.0) + s["dur"]
        coverage = [sum(s["dur"] for s in op.spans if s["parent"] is None) / op.latency
                    for op in traced]
        cli_ops = [op for op in traced if op.name != "study"]
        metrics = {
            "import.total_s": (self.imports["logitboot"], "s"),
            "import.process_start_s": (median(self.setup_samples["start"]), "s"),
            "import.process_exit_s": (median(self.setup_samples["exit"]), "s"),
            "import.scipy_stats_s": (self.imports["scipy.stats"], "s"),
            "import.scipy_linalg_s": (self.imports["scipy.linalg"], "s"),
            "import.numpy_s": (self.imports["numpy"], "s"),
            "cli.self_s": (med("main", "self"), "s"),
            "cli.stdout_bytes": (median([op.stdout_bytes for op in cli_ops]), "bytes"),
            "data_io.load_csv_s": (med("load_csv"), "s"),
            "data_io.load_csv_rows_per_s": (rate(loads, "rows"), "1/s"),
            "data_io.encode_s": (med("encode"), "s"),
            "data_io.simulate_s": (med("simulate"), "s"),
            "data_io.save_csv_s": (med("save_csv"), "s"),
            "model_core.fit_mle_s": (median([s["dur"] for s in sized]), "s"),
            "model_core.fit_mle_calls": (len(fits) / len(traced), "count"),
            "model_core.iterations_per_fit": (ratio(sum(s["iterations"] for s in sized),
                                                    len(sized)), "count"),
            "model_core.fit_rows_per_s": (rate(sized, "work"), "1/s"),
            **self.kernel_metrics(),
            "inference.bootstrap_fit_s": (med("bootstrap_fit"), "s"),
            "inference.self_s": (median([s["dur"] - s["fit_child"] for s in boots]), "s"),
            "inference.resample_indices_s": (med("resample_indices"), "s"),
            "inference.replicates_kept_ratio": (ratio(sum(s["kept"] for s in boots),
                                                      sum(s["requested"] for s in boots)),
                                                "ratio"),
            "inference.jackknife_s": (med("jackknife_estimates"), "s"),
            "inference.jackknife_kept_ratio": (ratio(sum(s["kept"] for s in jacks),
                                                     sum(s["n"] for s in jacks)), "ratio"),
            "inference.intervals_s": (median(list(by_op.values())), "s"),
            "inference.workers2_speedup": (self.workers_speedup(), "ratio"),
            "validation.split_sample_fit_s": (med("split_sample_fit"), "s"),
            "validation.holdout_validate_s": (med("holdout_validate"), "s"),
            "validation.probability_curves_s": (med("probability_curves"), "s"),
            "validation.self_s": (median([s["self"] for s in spans_of(*VALIDATION_NAMES)]),
                                  "s"),
            "trace.overhead_s": (median(self.overheads), "s"),
            "trace.coverage_min": (min(coverage), "ratio"),
        }
        called = {s["name"].rsplit(".", 1)[-1] for s in spans}
        self.info["not_applicable"] = [
            metric for metric, names in LAYER_CALLS.items()
            if called.isdisjoint(names) or (metric in SIZED_FIT_METRICS and not sized)]
        return metrics

    def kernel_metrics(self) -> dict:
        """Parts of one Newton iteration, each called on its own at the workload's n."""
        import logitboot

        n = self.kernel_n
        design, response = draw_study((self.seed, 7), n)
        data = logitboot.EncodedDataset(design, response, COLUMNS)
        theta = np.array(GOLDEN)
        out = {}
        for name in ("log_likelihood", "score", "observed_information"):
            func = getattr(logitboot, name)
            times = []
            deadline = time.monotonic() + 0.2
            while len(times) < 5 or time.monotonic() < deadline:
                start = time.monotonic()
                func(theta, data)
                times.append(time.monotonic() - start)
            out[f"model_core.{name}_s"] = (median(times), "s")
        p = design.shape[1]
        # Bytes one Newton iteration streams: X read for eta, the score and
        # X'WX (twice, plus the X*w temporary written and read), and about
        # ten length-n vectors.  Computed from n and p, not measured.
        out["model_core.iteration_bytes_computed"] = (8 * n * (6 * p + 10), "bytes")
        return out

    def workers_speedup(self) -> float:
        """``bootstrap_fit`` time at ``workers=1`` over ``workers=2``."""
        import logitboot

        design, response = draw_study((self.seed, 100), self.sizes.study_n)
        data = logitboot.EncodedDataset(design, response, COLUMNS)
        times = {}
        for workers in (1, 2):
            start = time.monotonic()
            logitboot.bootstrap_fit(data, None, replicates=self.sizes.speedup_replicates,
                                    master_seed=self.seed % 2**31, workers=workers)
            times[workers] = time.monotonic() - start
        return times[1] / times[2]


def parse_importtime(stderr: bytes) -> dict:
    """Cumulative seconds of the first import of each tracked module."""
    wanted = {"logitboot": 0.0, "numpy": 0.0, "scipy.stats": 0.0, "scipy.linalg": 0.0}
    for line in stderr.decode(errors="replace").splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not line.startswith("import time:"):
            continue
        name = parts[2].strip()
        if name in wanted and wanted[name] == 0.0:
            try:
                wanted[name] = int(parts[1]) / 1e6
            except ValueError:
                continue
    return wanted
