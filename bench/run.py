"""Run one benchmark workload against the source tree of this checkout.

    python3 bench/run.py --workload {cli-cold,boot-study,large-n} \\
        --seed N --seconds S --trace {0,1}

Inputs are generated from ``--seed``.  Whole rounds run until ``--seconds``
have passed; every operation's output is checked by an independent oracle.
Earlier lines of stdout describe the environment and the run; the last line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``).  Exits 2 without a result if ``src/logitboot`` is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("cli-cold", "boot-study", "large-n")
# One BLAS thread everywhere: the workloads are single-client closed loops,
# and nproc is 2 on the reference machine.
THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS

from workloads import Bench, median  # noqa: E402  (after the thread pins)


def source_digest(src: Path) -> str:
    """SHA-256 over the measured tree's Python files, paths included."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit(root: Path):
    try:
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform

    return platform.processor() or platform.machine()


def blas_info() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        vendor = "unknown"
    return {"vendor": vendor, "threads": THREADS}


def environment(root: Path) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas": blas_info(),
        "thread_env": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
        "source_sha256": source_digest(root / "src"),
        "git_commit": git_commit(root),
    }


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """Run one workload; returns the details and the result line."""
    sys.path.insert(0, str(ROOT / "src"))
    origin = importlib.util.find_spec("logitboot").origin
    if not Path(origin).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"logitboot resolves to {origin}, not {ROOT / 'src'}")
    work = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(ROOT, work, seed, seconds, traced)
        bench.run(workload)
        metrics = bench.per_layer() if traced else bench.end_to_end()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only if no other run is using it
    ops = bench.ops
    failed = [op for op in ops if op.problems]
    details = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(traced),
        "environment": environment(ROOT),
        "failed_ratio": len(failed) / len(ops),
        "setup_samples_s": bench.setup_samples,
        "imports_s": bench.imports,
        "operations": {name: {"count": sum(op.name == name for op in ops),
                              "latency_p50_s": median(
                                  [op.latency for op in ops if op.name == name])}
                       for name in dict.fromkeys(op.name for op in ops)},
        "latencies_s": [[op.name, op.latency, op.scale] for op in ops if not op.traced],
        "pace_s": {"nominal": bench.pace.NOMINAL_S, "median": median(bench.pace.samples),
                   "min": min(bench.pace.samples, default=0.0),
                   "max": max(bench.pace.samples, default=0.0),
                   "count": len(bench.pace.samples)},
        "problems": [f"{op.name}: {p}" for op in failed for p in op.problems][:20],
        **bench.info,
    }
    return {
        "details": details,
        "result": {
            "correct": not failed,
            "attempted": len(ops),
            "failed": len(failed),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    if not (ROOT / "src" / "logitboot" / "__init__.py").is_file():
        print(f"error: no source tree at {ROOT / 'src' / 'logitboot'}", file=sys.stderr)
        return 2
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(out["details"], sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
