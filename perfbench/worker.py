"""Run one workload inside this fresh, single-threaded interpreter.

Started by ``run.py``; not meant to be run by hand.  The worker imports
``posgames`` from the checkout's ``src``, makes the workload's inputs from
the seed (its set-up), then repeats the workload's operations in passes
until ``--seconds`` would be exceeded, and writes one JSON result file.
With ``--trace 1`` the program's public functions are wrapped and the spans
are written next to the result.  ``--setup-only`` stops after set-up; the
parent times such runs to measure set-up cost.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import time

import layers
import stats
import tracing
import workloads as W
import yardstick


class _GcClock:
    """Time and count of garbage collections, from ``gc.callbacks``."""

    def __init__(self):
        self.seconds = 0.0
        self.collections = 0
        self._started = 0.0

    def __call__(self, phase, _info):
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._started
            self.collections += 1


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Worker:
    def __init__(self, args):
        self.args = args
        self.tracer = None
        self.schema_validator = None
        self.stick = yardstick.Yardstick()

    # -- set-up -----------------------------------------------------------

    def import_program(self) -> float:
        started = time.perf_counter()
        import posgames  # noqa: F401
        import posgames.cli
        import posgames.strategy

        self.cli = posgames.cli
        self.strategy = posgames.strategy
        return time.perf_counter() - started

    def setup(self) -> None:
        """Make the workload's inputs from the seed."""
        wl = self.args.workload
        if wl == "solve-games":
            self.board_dirs = self._write_boards()
        elif wl == "refute-mutants":
            self._named_mutations()

    def _traced(self, name, fn, counts=None):
        return fn if self.tracer is None else self.tracer.wrap(name, fn, counts)

    def _named_mutations(self):
        return self._traced(
            "strategy.named_mutations", self.strategy.named_mutations
        )()

    def _write_boards(self) -> dict:
        from posgames import constructions as C
        from posgames.core import permute_hypergraph, save_hypergraph

        gen_gamma, gen_g3, gen_gcp, split_pendant = (
            self._traced("constructions.gen", fn)
            for fn in (C.gen_gamma, C.gen_g3, C.gen_gcp, C.split_pendant)
        )
        save = self._traced("core.save_hypergraph", save_hypergraph)
        boards = {
            "gamma": gen_gamma(), "g3-split": split_pendant(gen_g3()), "gcp": gen_gcp(),
        }
        perms = W.seeded_permutations(
            self.args.seed, {n: h.vertex_count for n, h in boards.items()}
        )
        dirs = {}
        for kind in ("shipped", "seeded"):
            d = os.path.join(self.args.work, kind)
            os.makedirs(d, exist_ok=True)
            for name, h in boards.items():
                if kind == "seeded":
                    h = permute_hypergraph(h, perms[name])
                with open(os.path.join(d, name + ".hg"), "w", encoding="utf-8") as fh:
                    fh.write(save(h))
            dirs[kind] = d
        return dirs

    # -- operations -------------------------------------------------------

    def op_seconds(self, started: float, ended: float) -> float:
        """Wall time of an operation, less the yardstick samples in it."""
        return ended - started - self.stick.busy(started, ended)

    def _validate(self, report) -> str | None:
        if self.schema_validator is None:
            import jsonschema

            with open(self.args.schema, encoding="utf-8") as fh:
                schema = json.load(fh)
            self.schema_validator = jsonschema.Draft7Validator(schema)
        error = next(iter(self.schema_validator.iter_errors(report)), None)
        return None if error is None else f"schema: {error.message[:200]}"

    def run_cli(self, op: W.CliOp, board_dir: str | None, pin_counters: bool):
        argv = op.resolve(board_dir or "")
        out, err = io.StringIO(), io.StringIO()
        span = self.tracer.open("cli", {"label": op.label}) if self.tracer else None
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
            error = None
        except Exception as exc:  # an exception is a failed operation
            rc, error = None, f"exception: {exc!r}"
        finally:
            ended = time.perf_counter()
            if span is not None:
                self.tracer.close(span)
        rec = {"label": op.label, "s": self.op_seconds(started, ended),
               "at": [started, ended], "reason": error, "drift": {}}
        if error is None and rc != 0:
            rec["reason"] = f"exit {rc}: {err.getvalue().strip()[:200]}"
        if rec["reason"] is None:
            try:
                report = json.loads(out.getvalue())
            except ValueError as exc:
                rec["reason"] = f"report is not JSON: {exc}"
            else:
                rec["reason"] = self._validate(report)
                if rec["reason"] is None:
                    facts = W.payload_facts(report["payload"])
                    rec["reason"] = W.check_verdict(op.verdict, facts)
                    if pin_counters:
                        rec["drift"] = W.counter_drift(op.counters, facts)
                    rec["digest"] = _digest(report["payload"])
        return rec

    def run_mutant(self, verify, name: str, h, s):
        span = self.tracer.open("refute", {"label": name}) if self.tracer else None
        started = time.perf_counter()
        try:
            rep = verify(h, s)
            error = None
        except Exception as exc:  # an exception is a failed operation
            rep, error = None, f"exception: {exc!r}"
        finally:
            ended = time.perf_counter()
            if span is not None:
                self.tracer.close(span)
        rec = {"label": name, "s": self.op_seconds(started, ended),
               "at": [started, ended], "reason": error, "drift": {}}
        if rep is None:
            return rec
        pinned = W.MUTANT_PINS.get(name)
        cex = rep.counterexample
        facts = {
            "verified": rep.verified,
            "cex_kind": cex.kind if cex else None,
            "lines_checked": rep.lines_checked,
        }
        if pinned is None:
            rec["reason"] = f"unknown mutant {name!r}"
        else:
            rec["reason"] = W.check_verdict(
                {"verified": False, "cex_kind": pinned[0]}, facts
            )
            rec["drift"] = W.counter_drift({"lines_checked": pinned[1]}, facts)
        rec["digest"] = _digest(
            [rep.verified, rep.lines_checked, rep.max_depth,
             cex and [cex.kind, cex.moves, cex.detail]]
        )
        return rec

    # -- passes -----------------------------------------------------------

    def run_pass(self, label: str, kind: str) -> dict:
        """One execution of the workload's operations; ``kind`` is
        ``shipped`` or, on solve-games, ``seeded``."""
        if self.tracer is not None:
            self.tracer.run = label
            root = self.tracer.open("pass", {"kind": kind})
        gc_before = (self.gc.seconds, self.gc.collections)
        sticks_before = len(self.stick.samples)
        cpu = time.process_time()
        wl, built_at = self.args.workload, None
        if wl == "verify-targets":
            ops = [self.run_cli(op, None, True) for op in W.VERIFY_OPS]
        elif wl == "solve-games":
            ops = [
                self.run_cli(op, self.board_dirs[kind], kind == "shipped")
                for op in W.SOLVE_OPS
            ]
        else:
            ops, built_at = self._refute_pass()
        # CPU time of the operations alone, without the yardstick samples.
        cpu = time.process_time() - cpu - sum(
            end - start for start, end, _ in self.stick.samples[sticks_before:]
        )
        if not self.args.trace:
            # Every operation needs a yardstick sample after it.
            self.stick.measure()
        built_s = self.op_seconds(*built_at) if built_at else 0.0
        rec = {
            "label": label,
            "kind": kind,
            "s": built_s + sum(op["s"] for op in ops),
            "built_s": built_s,
            "built_at": built_at,
            "cpu_s": cpu,
            "gc_s": self.gc.seconds - gc_before[0],
            "gc_collections": self.gc.collections - gc_before[1],
            "ops": ops,
        }
        if self.tracer is not None:
            self.tracer.close(root)
        return rec

    def _refute_pass(self) -> tuple[list, list]:
        """``named_mutations()`` (its time is part of the pass), then one
        operation per mutant, and when the mutants were built.  If they
        cannot be built, every pinned mutant counts as a failed operation."""
        started = time.perf_counter()
        try:
            mutants = self._named_mutations()
            names = [m[0] for m in mutants]
            error = None if names == list(W.MUTANT_PINS) else (
                f"mutant list changed: {names}"
            )
        except Exception as exc:  # an exception is a failed operation
            error = f"named_mutations: {exc!r}"
        built_at = [started, time.perf_counter()]
        if error is not None:
            failed = [{"label": name, "s": 0.0, "at": built_at, "reason": error,
                       "drift": {}} for name in W.MUTANT_PINS]
            return failed, built_at
        verify = self._traced(
            "verifier.verify", self.strategy.verify_maker_strategy,
            tracing.verification_counts,
        )
        return [self.run_mutant(verify, *m) for m in mutants], built_at

    def run(self) -> dict:
        import_s = self.import_program()
        if self.args.trace:
            self.tracer = tracing.Tracer()
            self.tracer.run = "setup"
            saved = tracing.install(self.tracer)
        self.gc = _GcClock()
        if self.tracer is not None:
            gc.callbacks.append(self.gc)
        try:
            if self.tracer is not None:
                root = self.tracer.open("setup")
            self.setup()
            if self.tracer is not None:
                self.tracer.close(root)
            if self.args.setup_only:
                return {}
            if not self.args.trace:
                self.stick.start()
            started = time.perf_counter()
            passes = []
            while True:
                passes.append(self.run_pass(f"pass-{len(passes)}", "shipped"))
                elapsed = time.perf_counter() - started
                mean = sum(p["s"] for p in passes) / len(passes)
                if elapsed + mean > self.args.seconds:
                    break
            # The seeded pass is a check outside the timed budget.  It runs
            # last so that the peak RSS of the timed passes does not depend
            # on the seed.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            seeded = None
            if self.args.workload == "solve-games":
                seeded = self.run_pass("seeded", "seeded")
        finally:
            if not self.args.trace:
                self.stick.stop()
            if self.tracer is not None:
                gc.callbacks.remove(self.gc)
                tracing.uninstall(saved)
        result = {
            "import_s": import_s,
            "peak_rss_mb": peak_rss_mb,
            "seeded": seeded,
            "passes": passes,
        }
        if not self.args.trace:
            for p in passes + ([seeded] if seeded else []):
                self.normalise(p)
            result["yardstick_s"] = stats.median([s[2] for s in self.stick.samples])
            result["yardstick_samples"] = len(self.stick.samples)
        if self.tracer is not None:
            result["layers"] = self._layer_metrics(seeded, passes)
            self.tracer.dump(self.args.spans)
        return result

    def normalise(self, p: dict) -> None:
        """Add each time of pass ``p`` at the yardstick's nominal speed."""
        for op in p["ops"]:
            op["norm_s"] = self.stick.normalise(op["s"], *op["at"])
        p["built_norm_s"] = (
            self.stick.normalise(p["built_s"], *p["built_at"]) if p["built_at"] else 0.0
        )
        p["norm_s"] = p["built_norm_s"] + sum(op["norm_s"] for op in p["ops"])

    def _layer_metrics(self, seeded, passes) -> dict:
        by_run: dict = {}
        for span in self.tracer.spans:
            by_run.setdefault(span.run, []).append(span)
        m = layers.run_metrics(
            by_run.get("setup", []), [by_run[p["label"]] for p in passes]
        )
        for key in ("cpu_s", "gc_s", "gc_collections"):
            m[f"proc.{key}"] = stats.median([p[key] for p in passes])
        if seeded is not None:
            seeded_m = layers.segment_metrics(by_run["seeded"])
            m["solve.seeded_nodes"] = sum(
                seeded_m[k]
                for k in ("mb.nodes_expanded", "cp.nodes_expanded", "cp.validate.nodes")
            )
        return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=W.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True, help="scratch directory")
    parser.add_argument("--schema", required=True, help="report schema path")
    parser.add_argument("--result", help="where to write the result JSON")
    parser.add_argument("--spans", help="where to write spans (trace only)")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    os.makedirs(args.work, exist_ok=True)
    result = Worker(args).run()
    if args.result:
        with open(args.result, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
