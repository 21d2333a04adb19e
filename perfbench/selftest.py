"""Self-test of the benchmark, at toy sizes; about a minute.

Usage, from the root of a checkout: ``python3 perfbench/selftest.py``.

It checks that
- every workload, untraced and traced, prints every metric that
  ``BENCHMARK.json`` names, with its unit, and every named end-to-end
  figure of ``run.NAMED``;
- in a traced run every span's self time is nonnegative (children,
  including spans from child processes, lie inside their parents) and
  the printed layer self times plus the untraced remainder add up to the
  traced wall time;
- a deliberately corrupted output trips each workload's check, and a
  raised exception counts as a failed operation;
- the benchmark fails, printing no result, without the program's sources.
Exit code 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import run

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def bench(*args: str, cwd: str = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def check_printed(name: str, trace: int, declared: dict) -> None:
    proc = bench("--workload", name, "--seed", "5", "--seconds", "1",
                 "--trace", str(trace), "--toy")
    expect(proc.returncode == 0, f"{name} trace={trace} exits 0 ({proc.stderr[-300:]})")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
           f"{name} trace={trace} result has exactly the four keys")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"{name} trace={trace} outputs are correct")
    wanted = declared["per_layer" if trace else "end_to_end"]
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    expect(got == {m["name"]: m["unit"] for m in wanted},
           f"{name} trace={trace} reports every declared metric with its unit")
    printed = [(metric["name"], metric["unit"]) for metric in wanted]
    if not trace:
        printed += [(metric, run.UNITS.get(metric, "s")) for metric in run.NAMED[name]]
    for metric, unit in printed:
        pattern = rf"^\s*{re.escape(metric)}\s.*\s{re.escape(unit)}(,|\s|$)"
        expect(any(re.match(pattern, ln) for ln in lines[:-1]),
               f"{name} trace={trace} prints {metric} in {unit}")
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        layers = sum(m[f"{layer}.self_s"] for layer in run.LAYERS)
        total = layers + m["trace.untraced_remainder_s"]
        expect(abs(total - m["trace.wall_s"]) <= 1e-6 * m["trace.wall_s"] + 1e-9,
               f"{name}: layer self times + remainder = wall "
               f"({total:.6f} vs {m['trace.wall_s']:.6f})")


def check_spans(name: str) -> None:
    import spans

    wl = run.make_workload(name, 6, toy=True)
    result = run.traced(wl, 0.1, f"selftest-{name}")
    records = result["spans"]
    an = spans.analyse(records)
    by_parent: dict[int, float] = {}
    for s in records:
        if s["parent"] >= 0:
            by_parent[s["parent"]] = by_parent.get(s["parent"], 0.0) + s["end"] - s["start"]
    worst = min(
        (s["end"] - s["start"] - by_parent.get(s["id"], 0.0) for s in records), default=0.0
    )
    expect(bool(records) and worst >= -1e-9,
           f"{name}: {len(records)} spans, all self times >= 0 (min {worst:.3g})")
    outside = set(an["layer_self"]) - set(run.LAYERS)
    expect(not outside, f"{name}: every traced layer is reported ({sorted(outside)})")


def check_corruption() -> None:
    import numpy as np

    walk = run.make_workload("walk-cycle", 7, toy=True)
    state = walk.setup()
    out = walk.op(state)
    expect(walk.check(state, out) == [], "walk-cycle: honest occupancy passes")
    occ = out["occupancy"]["random"]
    out["occupancy"]["random"] = np.roll(occ, 5)
    expect(walk.check(state, out) != [], "walk-cycle: shuffled occupancy fails its check")

    train = run.make_workload("train-n200", 7, toy=True)
    state = train.setup()
    out = train.op(state)
    expect(train.check(state, out) == [], "train-n200: relabelled run matches the reference")
    bad = dict(out, final_loss=out["final_loss"] * (1 + 1e-5))
    expect(train.check(state, bad) != [], "train-n200: perturbed final loss fails")
    bad = dict(out, final_alphas=out["final_alphas"][:-1])
    expect(train.check(state, bad) != [], "train-n200: a lost view fails")

    pipe = run.make_workload("pipeline-n2000", 7, toy=True)
    workdir = pipe.setup()
    out = pipe.op(workdir)
    expect(pipe.check(workdir, out) == [], "pipeline-n2000: honest chain passes")
    combined = os.path.join(workdir, "run", "combined.fdmv")
    with open(combined, "r+b") as fh:
        fh.truncate(os.path.getsize(combined) - 8)
    expect(pipe.check(workdir, out) != [], "pipeline-n2000: truncated embedding fails")
    os.remove(os.path.join(workdir, "run", "accuracy.json"))
    expect(pipe.check(workdir, out) != [], "pipeline-n2000: missing accuracy.json fails")
    bad = dict(out, codes=dict(out["codes"], probe=2))
    expect(pipe.check(workdir, bad) != [], "pipeline-n2000: nonzero exit code fails")

    class Broken:
        def op(self, state, tracer=None):
            raise FloatingPointError("injected")

    op = run.one_op(Broken(), None)
    expect(op["errors"] != [], "an exception in an operation counts as a failure")


def check_bare_directory() -> None:
    bare = os.path.join(run.HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCHMARK, bare)
    proc = bench("--workload", "walk-cycle", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and "correct" not in proc.stdout,
           "without src/fracgcl the benchmark fails and prints no result")


def main() -> int:
    with open(BENCHMARK) as fh:
        declared = json.load(fh)
    run.prepare_environment()
    for name in run.NAMED:
        for trace in (0, 1):
            check_printed(name, trace, declared)
        check_spans(name)
    check_corruption()
    check_bare_directory()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
