"""The repository benchmark: one command, every end-to-end metric.

Usage (from the repository root)::

    python3 perfbench/run.py --workload zh --seed 1 --seconds 30 --trace 0

A run generates its inputs from ``--seed`` (see
:mod:`perfbench.inputs`), then runs four phases through the public
entry points of the program, each in processes of its own, with their
repetitions interleaved over ``--seconds / 5`` rounds so that every
median spans the whole run:

* ``train``  — ``FuzzyPSM.train_streaming`` over ``stream_corpus_chunks``
  on a counted corpus file, then ``save_meter(..., fmt="binary")``;
  the model it saves feeds the other phases;
* ``bulk``   — ``FuzzyPSM.probability_many(stream, jobs=2)`` on a loaded
  model over a third site's leak;
* ``guess``  — ``AttackEngine.guesses(N)`` and a ``MonteCarloEstimator``
  over ``AttackEngine.sample``;
* ``online`` — ``repro serve --workers 1`` under open-loop ``/check``
  load, ``/check`` beside ``/accept``, and (traced) a capacity
  search (:mod:`perfbench.online`).

Workloads differ by the language of the password ecosystem: ``zh``
(Chinese sites) and ``en`` (English sites).  Every output is checked
(see each phase), and after each phase the run counts ``reprosnap-*``
shared-memory segments left in ``/dev/shm`` and tracebacks on the
phase's stderr (servers, pools and resource trackers included); each
finding counts as one failed operation.

The last line of standard output is the result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones named in
``BENCHMARK.json``; with ``--trace 1`` the per-layer ones, from spans
recorded around the calls into each layer.  The line before it holds
the host fingerprint, why each phase's inputs were chosen, output
digests and hygiene findings; the same report is saved under
``.perfbench/results/``.  The process exits 1 when an output check
fails, 2 when the program's source is missing, 3 on a single-CPU host.

``--smoke`` runs tiny inputs in seconds (``perfbench/test_smoke.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")

#: Rough seconds one round of all phases takes: ``--seconds`` sets
#: the number of rounds.  The host's speed drifts by tens of percent
#: over seconds, so many short repetitions spread over the run give
#: steadier medians than a few long ones.
ROUND_SECONDS = 5.0
CHILD_PHASES = ("train", "bulk", "guess")
#: A phase whose spans leave more than this share of its traced time
#: unattributed fails the additivity check.
ADDITIVITY = 0.10


#: Unit of a metric, by the suffix of its name.
UNITS = (("_per_s", "1/s"), ("_rps", "1/s"), ("_ms", "ms"), ("_us", "us"),
         ("_s", "s"), ("_mib", "MiB"), ("_frac", "frac"), ("_ratio", "frac"))


def unit_of(name: str) -> str:
    for suffix, unit in UNITS:
        if name.endswith(suffix):
            return unit
    return "count"


def fail(message: str, code: int) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def shm_segments() -> set:
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("reprosnap-")}
    except FileNotFoundError:
        return set()


def tracebacks(text: str) -> int:
    return text.count("Traceback (most recent call last)")


def fingerprint(args: argparse.Namespace, nproc: int) -> Dict[str, Any]:
    from repro.core.shm import mp_context

    commit = "unknown"  # a checkout without git history
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(os.path.join(SRC, "repro"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as handle:
                    source.update(name.encode() + handle.read())
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "start_method": mp_context().get_start_method(),
        "commit": commit,
        "source_sha256": source.hexdigest()[:16],
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


class Child:
    """One phase process (``phases.py``), driven one repetition at a time."""

    def __init__(self, phase: str, workdir: str) -> None:
        self.phase = phase
        self.workdir = workdir
        self.stderr_path = os.path.join(workdir, f"{phase}.stderr")
        from perfbench.online import child_env

        with open(self.stderr_path, "w", encoding="utf-8") as stderr:
            self.process = subprocess.Popen(
                [sys.executable, os.path.join(ROOT, "perfbench", "phases.py"),
                 phase, workdir],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=stderr,
                env=child_env(), cwd=ROOT, text=True,
            )

    def command(self, line: str) -> None:
        self.process.stdin.write(line + "\n")
        self.process.stdin.flush()
        self.wait()

    def wait(self) -> None:
        if self.process.stdout.readline().strip() != "done":
            self.close()
            raise RuntimeError(
                f"phase {self.phase} failed:\n{self.stderr()}")

    def stderr(self) -> str:
        with open(self.stderr_path, encoding="utf-8") as handle:
            return handle.read()

    def close(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self.process.stdin.close()
        self.process.stdout.close()

    def finish(self) -> Dict[str, Any]:
        self.command("finish")
        self.process.stdin.close()
        self.process.wait(timeout=60)
        self.process.stdout.close()
        with open(os.path.join(self.workdir, f"{self.phase}.json"),
                  encoding="utf-8") as handle:
            return json.load(handle)


class Run:
    """One run: inputs, then interleaved rounds of every phase."""

    def __init__(self, args: argparse.Namespace, nproc: int) -> None:
        from perfbench import inputs as inputs_module

        self.args = args
        self.nproc = nproc
        self.workdir = os.path.join(STATE, f"run-{os.getpid()}")
        self.spans_dir = os.path.join(STATE, "spans", args.workload)
        self.sizes = inputs_module.SMOKE if args.smoke else inputs_module.FULL
        self.rounds = max(2, round(args.seconds / ROUND_SECONDS))
        self.phases: Dict[str, Dict[str, Any]] = {}
        self.hygiene: Dict[str, Dict[str, int]] = {}

    def execute(self) -> None:
        from perfbench.inputs import make_inputs
        from perfbench.online import Online
        from perfbench.phases import digest

        args = self.args
        clock = time.perf_counter
        marks = [("start", clock())]
        inputs = make_inputs(args.workload, args.seed, self.sizes,
                             os.path.join(self.workdir, "train.txt"))
        for name, value in (("base.json", inputs.base),
                            ("bulk.json", inputs.bulk),
                            ("probes.json", inputs.probes)):
            with open(os.path.join(self.workdir, name), "w",
                      encoding="utf-8") as handle:
                json.dump(value, handle)
        config = {
            "workdir": self.workdir, "trace": bool(args.trace),
            "seed": args.seed, "guesses": self.sizes.guesses,
            "samples": self.sizes.samples, "spans_dir": self.spans_dir,
        }
        with open(os.path.join(self.workdir, "config.json"), "w",
                  encoding="utf-8") as handle:
            json.dump(config, handle)
        before = shm_segments()
        children = {phase: Child(phase, self.workdir)
                    for phase in CHILD_PHASES}
        online: Optional[Online] = None
        owners: Dict[int, str] = {
            child.process.pid: phase for phase, child in children.items()}
        try:
            for child in children.values():
                child.wait()
            marks.append(("inputs", clock()))
            for index in range(self.rounds):
                children["train"].command("op")
                marks.append((f"train{index}", clock()))
                if online is None:
                    # The first training run saved the model it serves.
                    online = Online(
                        inputs, os.path.join(self.workdir, "model.bin"),
                        self.workdir, bool(args.trace), min(2, self.nproc),
                        self.spans_dir, self.rounds, args.smoke,
                    )
                    online.start()
                    marks.append(("online-start", clock()))
                children["bulk"].command("op")
                marks.append((f"bulk{index}", clock()))
                children["guess"].command("op")
                marks.append((f"guess{index}", clock()))
                online.round()
                marks.append((f"online{index}", clock()))
            for phase, child in children.items():
                self.phases[phase] = child.finish()
                marks.append((f"finish-{phase}", clock()))
            online.finish()
            marks.append(("finish-online", clock()))
        finally:
            for child in children.values():
                child.close()
            if online is not None:
                online.close()
                owners.update({pid: "online" for pid in online.pids})
        self.wall = {name: round(t - previous, 3) for (name, t), (_n, previous)
                     in zip(marks[1:], marks)}
        leftovers: Dict[str, int] = {}
        for name in shm_segments() - before:
            pid = int(name.split("-")[1]) if name.count("-") >= 2 else -1
            owner = owners.get(pid, "online")
            leftovers[owner] = leftovers.get(owner, 0) + 1
        stderrs = {phase: [child.stderr()] for phase, child in
                   children.items()}
        stderrs["online"] = online.stderrs
        for phase, texts in stderrs.items():
            self.hygiene[phase] = {
                "shm_leftovers": leftovers.get(phase, 0),
                "stderr_tracebacks": sum(tracebacks(t) for t in texts),
            }
            for text in texts:
                if tracebacks(text):
                    sys.stderr.write(f"--- {phase} stderr ---\n{text}")
        self.phases["online"] = {
            "metrics": online.metrics, "layers": online.layers,
            "why": online.why, "ops": online.ops,
            "failures": online.failures, "failed_ops": online.failed_ops,
            "digest": digest({
                "scores": sorted(online.expected.items()),
                "mixed_epochs": online.outputs.get("mixed_epochs", []),
            }),
            "overhead": list(online.overhead),
            "attributed": list(online.attributed),
        }

    def result(self) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        phases = self.phases
        failures = [f for p in phases.values() for f in p["failures"]]
        failed_ops = sum(p["failed_ops"] for p in phases.values())
        findings = sum(sum(h.values()) for h in self.hygiene.values())
        attempted = sum(p["ops"] for p in phases.values()) + 2 * len(
            self.hygiene)
        if self.args.trace:
            checked = len(failures)
            metrics = self.layer_metrics(failures)
            failed_ops += len(failures) - checked  # additivity failures
            metrics["error_frac"] = (failed_ops + findings) / attempted
        else:
            metrics = {
                "setup_s": sum(p["metrics"]["setup_s"]
                               for p in phases.values()),
                "peak_rss_mib": resource.getrusage(
                    resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
            }
            for phase in phases.values():
                for name, value in phase["metrics"].items():
                    if name != "setup_s":
                        metrics[name] = value
        report = {
            "fingerprint": fingerprint(self.args, self.nproc),
            "rounds": self.rounds,
            "wall_s": self.wall,
            "why": {name: p["why"] for name, p in phases.items()},
            "setup_s": {name: p["metrics"].get("setup_s")
                        for name, p in phases.items()},
            "digests": {name: p["digest"] for name, p in phases.items()},
            "hygiene": self.hygiene,
            "failures": failures,
        }
        result = {
            "correct": not failures,
            "attempted": attempted,
            "failed": failed_ops + findings,
            "metrics": {
                name: {"value": value, "unit": unit_of(name)}
                for name, value in sorted(metrics.items())
            },
        }
        return result, report

    def layer_metrics(self, failures: List[str]) -> Dict[str, Any]:
        layers: Dict[str, Any] = {}
        traced = untraced = 0.0
        worst = 0.0
        for name, phase in self.phases.items():
            layers.update(phase["layers"])
            layers[f"{name}.setup_s"] = phase["metrics"]["setup_s"]
            t, u = phase["overhead"]
            traced += t
            untraced += u
            if name == "online":
                attributed, total = phase["attributed"]
                share = 1.0 - attributed / total if total else 1.0
            else:
                share = (phase["unattributed_s"] / phase["traced_s"]
                         if phase["traced_s"] else 1.0)
            layers[f"{name}.trace.unattributed_frac"] = share
            worst = max(worst, abs(share))
            if abs(share) > ADDITIVITY:
                failures.append(
                    f"{name}: per-layer self times miss {share:.1%} of the "
                    "traced end-to-end time")
        layers["trace.unattributed_frac"] = worst
        layers["trace.overhead_frac"] = traced / untraced - 1.0
        return layers


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs; for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        return fail(f"no program source at {SRC}/repro; run from the root "
                    "of a full checkout", 2)
    sys.path.insert(0, SRC)
    sys.path.insert(0, ROOT)
    from perfbench.inputs import WORKLOADS

    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; known: "
                    + ", ".join(WORKLOADS), 2)
    nproc = len(os.sched_getaffinity(0))
    if nproc < 2:
        return fail(
            f"this host offers {nproc} CPU; the online phase (server, worker "
            "and load generator) and jobs=2 bulk scoring need at least 2. "
            "Refusing to report single-core numbers.", 3)
    run = Run(args, nproc)
    os.makedirs(run.workdir)
    os.makedirs(run.spans_dir, exist_ok=True)
    try:
        run.execute()
        result, report = run.result()
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
    results_dir = os.path.join(STATE, "results")
    os.makedirs(results_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(results_dir, stem + ".json"), "w",
              encoding="utf-8") as handle:
        json.dump({"result": result, "report": report}, handle, indent=1)
    for failure in report["failures"]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
