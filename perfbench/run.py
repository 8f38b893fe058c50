"""posgames benchmark: end-to-end and per-layer figures for three workloads.

    python3 perfbench/run.py --workload verify-targets --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --trace 1      # every workload, one table each

Run from the root of a source checkout.  Each run times several fresh set-ups
(interpreter start, ``import posgames``, input generation), then drives the
workload in one fresh single-threaded interpreter with tracing off.  With
``--trace 1`` a second, traced interpreter repeats the work and the per-layer
metrics come from its spans.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Details of each
run (environment, pass times, counter drift, failures) go to
``.perfbench/results/`` and spans to ``.perfbench/trace/``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

import layers
import stats
import yardstick
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SCHEMA = ROOT / "docs" / "report_schema.json"
SETUP_PROBES = 9
# Reference runs in each yardstick sample taken between two set-ups.
SETUP_REPEAT = 5
RUN_DEADLINE_S = 170.0
DEFAULT_SECONDS = 20  # run_seconds of BENCHMARK.json

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class BenchError(Exception):
    """The benchmark could not produce a result."""


def check_checkout() -> None:
    """Refuse to run anywhere but a source checkout with its dependencies."""
    missing = [
        str(p.relative_to(ROOT))
        for p in (ROOT / "src" / "posgames" / "__init__.py", SCHEMA)
        if not p.is_file()
    ]
    if missing:
        raise BenchError(f"not a posgames checkout, missing: {', '.join(missing)}")
    try:
        import jsonschema  # noqa: F401
    except ImportError:
        raise BenchError("the jsonschema package is required") from None


def environment() -> dict:
    """Where and on what the figures were measured."""
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                None,
            )
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + [SCHEMA]:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "loadavg_start": os.getloadavg(),
    }


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload, self.seed, self.trace = workload, seed, trace
        # A traced run splits its budget between the untraced and the traced
        # worker, so that it lasts about as long as an untraced run.
        self.seconds = seconds / 2 if trace else seconds
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.work = OUT / "tmp" / f"{workload}-{os.getpid()}"

    def _worker(self, role: str, *extra: str) -> dict:
        result = self.work / f"{role}.json"
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", self.workload, "--seed", str(self.seed),
            "--seconds", str(self.seconds), "--work", str(self.work / role),
            "--schema", str(SCHEMA), "--result", str(result), *extra,
        ]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        # One hash seed for every interpreter, so that dict and set layouts,
        # and with them the timings, do not vary from run to run.
        env["PYTHONHASHSEED"] = "0"
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run deadline passed")
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=env, timeout=remaining,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{role} worker passed the run deadline") from None
        if proc.returncode != 0:
            raise BenchError(
                f"{role} worker exited {proc.returncode}: {proc.stderr[-2000:]}"
            )
        with open(result, encoding="utf-8") as fh:
            return json.load(fh)

    def setup_times(self) -> tuple[list[float], list[float]]:
        """Each set-up's wall time, as measured and at the yardstick's
        nominal speed (the yardstick runs in this process around each)."""
        stick = yardstick.Yardstick()
        times, spans = [], []
        stick.measure(SETUP_REPEAT)
        for i in range(SETUP_PROBES):
            started = time.perf_counter()
            self._worker(f"setup-{i}", "--setup-only")
            ended = time.perf_counter()
            stick.measure(SETUP_REPEAT)
            times.append(ended - started)
            spans.append((started, ended))
        return times, [stick.normalise(t, *span) for t, span in zip(times, spans)]

    def execute(self) -> dict:
        self.work.mkdir(parents=True, exist_ok=True)
        try:
            setups = self.setup_times()
            workers = [self._worker("untraced")]
            if self.trace:
                spans = OUT / "trace" / f"{self.workload}-seed{self.seed}.jsonl"
                spans.parent.mkdir(parents=True, exist_ok=True)
                workers.append(
                    self._worker("traced", "--trace", "1", "--spans", str(spans))
                )
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
        return summarize(setups, workers)


def all_passes(worker: dict) -> list:
    return ([worker["seeded"]] if worker["seeded"] else []) + worker["passes"]


def payload_mismatches(workers: list[dict]) -> tuple[int, int]:
    """Payloads that differ from the first one for the same operation on
    the same inputs, across every pass of every worker; and how many
    payloads were compared."""
    first: dict = {}
    mismatches = compared = 0
    for w in workers:
        for p in all_passes(w):
            for op in p["ops"]:
                if "digest" not in op:
                    continue
                key = (p["kind"], op["label"])
                if key in first:
                    compared += 1
                    mismatches += op["digest"] != first[key]
                else:
                    first[key] = op["digest"]
    return mismatches, compared


def op_times(worker: dict, key: str = "norm_s") -> dict:
    """Each operation's times over the timed passes: at the yardstick's
    nominal speed (``norm_s``) or as measured (``s``)."""
    times: dict = {}
    for p in worker["passes"]:
        for op in p["ops"]:
            times.setdefault(op["label"], []).append(op[key])
    return times


def wall(worker: dict, key: str = "norm_s") -> float:
    """Each operation's median time over the passes, summed over the
    operations (plus the median time to build the mutants)."""
    built = "built_norm_s" if key == "norm_s" else "built_s"
    return stats.median([p[built] for p in worker["passes"]]) + sum(
        stats.median(t) for t in op_times(worker, key).values()
    )


def summarize(setups: tuple[list[float], list[float]], workers: list[dict]) -> dict:
    """Every figure of one run, as recorded in the results file."""
    base = workers[0]
    ops = [op for w in workers for p in all_passes(w) for op in p["ops"]]
    failures = [f"{op['label']}: {op['reason']}" for op in ops if op["reason"]]
    drift = {op["label"]: op["drift"] for op in ops if op["drift"]}
    mismatches, compared = payload_mismatches(workers)
    raw_setups, norm_setups = setups
    e2e = {
        "wall_s": wall(base),
        "setup_s": stats.median(norm_setups),
        "peak_rss_mb": base["peak_rss_mb"],
    }
    out = {
        "correct": not failures and mismatches == 0,
        "attempted": len(ops),
        "failed": len(failures),
        "e2e": e2e,
        "runs": len(base["passes"]),
        "raw_wall_s": wall(base, "s"),
        "raw_setup_s": stats.median(raw_setups),
        "yardstick_s": base["yardstick_s"],
        "yardstick_samples": base["yardstick_samples"],
        "pass_s": [p["norm_s"] for p in base["passes"]],
        "raw_pass_s": [p["s"] for p in base["passes"]],
        "op_s": op_times(base),
        "raw_op_s": op_times(base, "s"),
        "setup_runs_s": norm_setups,
        "raw_setup_runs_s": raw_setups,
        "failed_ratio": len(failures) / len(ops) if ops else 1.0,
        "payload_mismatches": mismatches,
        "payloads_compared": compared,
        "failures": failures,
        "counter_drift": drift,
    }
    if base["seeded"]:
        out["seeded_pass_s"] = base["seeded"]["norm_s"]
    if len(workers) > 1:
        traced = workers[1]
        m = dict(traced["layers"])
        m["proc.import_s"] = traced["import_s"]
        m["proc.raw_wall_s"] = out["raw_wall_s"]
        m["proc.yardstick_s"] = base["yardstick_s"]
        # The traced worker takes no yardstick samples: compare measured times.
        m["trace.overhead_s"] = wall(traced, "s") - wall(base, "s")
        if base["seeded"]:
            m["solve.seeded_s"] = base["seeded"]["norm_s"]
        m["cli.payload_mismatches"] = mismatches
        m["failed_ratio"] = out["failed_ratio"]
        out["layers"] = layers.complete(m)
    return out


def result_line(summary: dict, trace: bool) -> dict:
    if trace:
        metrics = summary["layers"]
    else:
        metrics = {
            name: {"value": summary["e2e"][name], "unit": unit}
            for name, unit in END_TO_END
        }
    return {
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }


def describe(workload: str, seed: int, summary: dict) -> list[str]:
    """The human-readable table printed ahead of the result line."""
    n = summary["runs"]
    tail = stats.tail_percentile(n)
    if tail is None:
        tail_text = f"no tail percentile: needs 40 runs, has {n}"
    else:
        tail_text = f"p{tail:g} {stats.percentile(summary['pass_s'], tail):.4f} s"
    e2e = summary["e2e"]
    lines = [
        f"workload {workload}  seed {seed}",
        f"  wall_s       {e2e['wall_s']:10.4f} s      per-operation medians over {n} runs; "
        f"{tail_text}",
        f"  setup_s      {e2e['setup_s']:10.4f} s      median of "
        f"{len(summary['setup_runs_s'])} set-ups",
        f"  (as measured: wall {summary['raw_wall_s']:.4f} s, set-up "
        f"{summary['raw_setup_s']:.4f} s; yardstick median "
        f"{summary['yardstick_s'] * 1e3:.2f} ms, nominal "
        f"{yardstick.NOMINAL_S * 1e3:.2f} ms, {summary['yardstick_samples']} samples)",
        f"  peak_rss_mb  {e2e['peak_rss_mb']:10.1f} MB",
        f"  failed_ratio {summary['failed_ratio']:10.4f}        "
        f"{summary['failed']} of {summary['attempted']} operations",
        f"  cli.payload_mismatches {summary['payload_mismatches']}  "
        f"({summary['payloads_compared']} payloads compared)",
    ]
    if "seeded_pass_s" in summary:
        lines.append(f"  seeded pass  {summary['seeded_pass_s']:10.4f} s      "
                     "relabelled boards, verdicts checked")
    lines += [f"  FAILED {f}" for f in summary["failures"]]
    lines += [f"  drift {label}: {d}" for label, d in summary["counter_drift"].items()]
    if "layers" in summary:
        lines += [
            f"  {name:40s} {m['value']:>16.6g} {m['unit']}"
            for name, m in summary["layers"].items()
        ]
    return lines


def run_workload(workload, seed, seconds, trace, env) -> dict:
    summary = Run(workload, seed, seconds, trace).execute()
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "env": env, **summary}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    with open(results / f"{workload}-seed{seed}-trace{int(trace)}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print("\n".join(describe(workload, seed, summary)))
    return result_line(summary, trace)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        check_checkout()
        env = environment()
        print("env " + json.dumps(env, sort_keys=True))
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {
            name: run_workload(name, args.seed, args.seconds, bool(args.trace), env)
            for name in names
        }
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    sys.stdout.flush()
    last = results[args.workload] if args.workload != "all" else results
    print(json.dumps(last, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
