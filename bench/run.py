"""nlhjb benchmark: end-to-end and per-layer metrics of CLI solves.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Each sample runs ``nlhjb.cli.run(cfg, outdir)`` once in a fresh child process
(``bench/child.py``) and checks its report against the workload's pinned
answer.  Samples run one after another for ``--seconds`` (at least MIN_SOLVES
solve samples).

``--trace 0`` reports the end-to-end metrics: median ``solve_s`` (wall time of
one ``cli.run`` call), median ``setup_s`` (``import nlhjb`` + ``parse_config``
+ ``build_problem`` in a fresh process) and median ``peak_rss_mb`` of the
solve children.  ``--trace 1`` alternates traced and untraced samples and
reports per-layer self times and exact counts from the traced ones
(``bench/tracer.py``).

Every sample, the environment and the run order go to
``.bench_out/BENCH_<workload>_seed<seed>_trace<t>.json``; a readable summary
goes to standard output, and its last line is the JSON result.  Exits 2
without a result when the program cannot be imported at all.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import COUNT_METRICS, TIME_METRICS
from workloads import WORKLOADS, check_report, make_config

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

# The solves are sparse and single-threaded; one BLAS thread keeps BLAS from
# competing with the timed process on a small machine.
BLAS_THREADS = 1
# Extra set-up-only children, so that setup_s has several samples per run.
SETUP_ONLY_SAMPLES = 2
MIN_SOLVES = 3
MIN_TRACED = 2
# No child may outlive this many seconds of the run.
RUN_DEADLINE_S = 170.0
# Traced self times must add up to the cli.run wall time within this margin.
SELF_SUM_REL, SELF_SUM_ABS = 0.01, 0.005


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        h.update(p.relative_to(ROOT).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


class Runner:
    """Runs child samples in order and keeps every one of them."""

    def __init__(self, workload: str, raw: dict, shift: float):
        self.workload, self.raw, self.shift = workload, raw, shift
        self.env = _child_env()
        self.t0 = time.perf_counter()
        self.samples: list[dict] = []

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def child(self, mode: str) -> dict:
        order = len(self.samples)
        outdir = OUT / "tmp" / f"{self.workload}-{order}"
        shutil.rmtree(outdir, ignore_errors=True)
        cmd = [sys.executable, str(BENCH / "child.py"), mode,
               json.dumps(self.raw), str(outdir)]
        sample: dict = {"order": order, "mode": mode,
                        "started_s": self.elapsed()}
        t = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True,
                                  timeout=max(1.0, RUN_DEADLINE_S - self.elapsed()))
            sample["returncode"] = proc.returncode
            lines = proc.stdout.strip().splitlines()
            if proc.returncode == 0 and lines:
                sample.update(json.loads(lines[-1]))
            else:
                sample["stderr_tail"] = proc.stderr[-2000:]
                sys.stderr.write(proc.stderr[-2000:])
        except subprocess.TimeoutExpired:
            sample["returncode"] = None
            sample["stderr_tail"] = "timed out"
        sample["wall_s"] = time.perf_counter() - t
        if mode in ("solve", "traced"):
            self._check(sample, outdir)
        shutil.rmtree(outdir, ignore_errors=True)
        self.samples.append(sample)
        return sample

    def _check(self, sample: dict, outdir: Path) -> None:
        report_path = outdir / "report.json"
        report = None
        if report_path.is_file():
            report = json.loads(report_path.read_text())
            sample["report_sha256"] = _sha256(report_path)
            # run_meta.json holds a wall-clock float, so its length varies.
            sample["bytes_written"] = sum(
                p.stat().st_size for p in outdir.rglob("*")
                if p.is_file() and p.name != "run_meta.json")
        ok, detail = check_report(self.workload, self.raw, self.shift,
                                  sample.get("exit_code"), report)
        sample["ok"] = ok and sample["returncode"] == 0
        sample["check"] = detail

    def of(self, *modes: str) -> list[dict]:
        return [s for s in self.samples if s["mode"] in modes]


def _stats(values: list[float]) -> dict:
    out = {"n": len(values), "median": statistics.median(values),
           "min": min(values), "max": max(values)}
    if len(values) >= 2:
        q = statistics.quantiles(values, n=4)
        out["q1"], out["q3"] = q[0], q[2]
    return out


def _measure(r: Runner, seconds: float, modes: list[str], minimum: dict) -> None:
    """Run samples, cycling through ``modes``, within ``seconds``.

    Once the minimums are met, a sample starts only if a sample of median
    length still ends within ``seconds``.
    """
    start = r.elapsed()
    walls: list[float] = []
    for i in itertools.count():
        typical = statistics.median(walls) if walls else 0.0
        done = all(len(r.of(m)) >= n for m, n in minimum.items())
        if done and r.elapsed() - start + typical > seconds:
            return
        if r.elapsed() + 2 * typical > RUN_DEADLINE_S:
            return
        walls.append(r.child(modes[i % len(modes)])["wall_s"])


def _end_to_end(r: Runner) -> tuple[dict, dict]:
    solves = [s for s in r.of("solve") if "solve_s" in s]
    setups = [s["setup_s"] for s in r.of("setup", "solve") if "setup_s" in s]
    stats = {
        "solve_s": _stats([s["solve_s"] for s in solves]),
        "setup_s": _stats(setups),
        "peak_rss_mb": _stats([s["peak_rss_mb"] for s in solves]),
    }
    units = {"solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    return ({k: {"value": v["median"], "unit": units[k]} for k, v in stats.items()},
            stats)


def _per_layer(r: Runner, expect: list[str], failed_frac: float):
    traced = [s for s in r.of("traced") if "trace" in s]
    untraced = [s["solve_s"] for s in r.of("solve") if "solve_s" in s]
    problems, flags = [], []
    metrics = {}
    for m in TIME_METRICS:
        metrics[m] = {"value": statistics.median(s["trace"]["self_s"][m] for s in traced),
                      "unit": "s"}
    first = traced[0]
    for m in COUNT_METRICS:
        unit = "bytes" if m.endswith("_bytes") else "count"
        metrics[m] = {"value": first["trace"]["counts"][m], "unit": unit}
    metrics["cli.bytes_written"] = {"value": first.get("bytes_written", 0), "unit": "bytes"}
    metrics["trace.overhead_s"] = {
        "value": statistics.median(s["solve_s"] for s in traced) - statistics.median(untraced),
        "unit": "s"}
    metrics["failed_frac"] = {"value": failed_frac, "unit": "ratio"}

    def exact(s):
        return (s["trace"]["counts"], s["trace"]["calls"], s.get("bytes_written"))

    for s in traced[1:]:
        if exact(s) != exact(first):
            problems.append(f"counts of traced sample {s['order']} differ from "
                            f"sample {first['order']}")
    for s in traced:
        total = sum(s["trace"]["self_s"].values())
        if abs(total - s["solve_s"]) > SELF_SUM_REL * s["solve_s"] + SELF_SUM_ABS:
            problems.append(f"sample {s['order']}: self times sum to {total:.4f} s, "
                            f"cli.run took {s['solve_s']:.4f} s")
    for m in expect:
        if first["trace"]["metric_calls"].get(m, 0) == 0:
            flags.append(f"{m}: no calls on a workload that should exercise it")
    return metrics, problems, flags


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "nlhjb" / "__init__.py").is_file():
        print(f"no nlhjb sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    raw, shift = make_config(args.workload, args.seed)
    r = Runner(args.workload, raw, shift)
    warm = r.child("env")  # also the warm-up: byte-compiles the sources
    if "env" not in warm:
        print("nlhjb failed to import or build the problem", file=sys.stderr)
        return 2

    if args.trace:
        _measure(r, args.seconds, ["traced", "solve"],
                 {"traced": MIN_TRACED, "solve": 1})
    else:
        for _ in range(SETUP_ONLY_SAMPLES):
            r.child("setup")
        _measure(r, args.seconds, ["solve"], {"solve": MIN_SOLVES})

    runs = r.of("solve", "traced")
    attempted = len(runs)
    failed = sum(1 for s in runs if not s.get("ok"))
    problems = [f"sample {s['order']} ({s['mode']}): {s.get('check') or s.get('stderr_tail')}"
                for s in runs if not s.get("ok")]
    flags: list[str] = []
    stats: dict = {}
    try:
        if args.trace:
            metrics, trace_problems, flags = _per_layer(
                r, WORKLOADS[args.workload]["expect_layers"], failed / attempted)
            problems += trace_problems
        else:
            metrics, stats = _end_to_end(r)
    except (IndexError, KeyError, statistics.StatisticsError) as exc:
        print(f"no complete sample to measure: {exc!r}", file=sys.stderr)
        return 3
    correct = not problems

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "config": raw, "cost_shift": shift,
        "environment": {
            "git_sha": _git_sha(), "source_sha256": _source_digest(),
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": _cpu_model(), "blas_threads": BLAS_THREADS, **warm["env"],
        },
        "correct": correct, "attempted": attempted, "failed": failed,
        "problems": problems, "flags": flags, "metrics": metrics, "stats": stats,
        "samples": r.samples,
    }
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"workload {args.workload} seed {args.seed} cost_shift {shift} "
          f"samples {attempted} (results in {out_path.relative_to(ROOT)})")
    for s in runs:
        print(f"  sample {s['order']} {s['mode']:6s} setup {s.get('setup_s', float('nan')):.3f} s "
              f"solve {s.get('solve_s', float('nan')):.3f} s ok {s.get('ok')} "
              f"report {s.get('report_sha256', '-')[:12]}")
    for name, m in metrics.items():
        extra = stats.get(name)
        extra = (f"  n={extra['n']} min={extra['min']:.4g} max={extra['max']:.4g}"
                 if extra else "")
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}{extra}")
    if not args.trace:  # the per-layer set carries it as a metric
        print(f"  {'failed_frac':28s} {failed / attempted:.6g} ratio")
    for line in problems:
        print(f"  FAILED: {line}")
    for line in flags:
        print(f"  FLAG: {line}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
