"""fracgcl benchmark: one workload per run, end to end or traced by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload train-n200 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

``--workload`` is ``train-n200``, ``pipeline-n2000``, ``walk-cycle`` or
``all``.  The run sets inputs up from ``--seed``, then repeats the
workload's operation in a closed loop (one caller) for about ``--seconds``:
the next operation starts only if the last one's duration still fits.  It
checks every operation's output and prints each metric by name with its
unit and sample count.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates a traced operation and an untraced one, each with
its own setup; the traced one has a span around every public fracgcl
function (see ``spans.py``).  It reports the per-layer metrics and the
tracing overhead.  Spans are written to ``perfbench/out/`` when the run
ends.

BLAS threads are capped at the number of usable cores through the
environment, before numpy loads here or in any child process.  The program
is imported from ``src/`` of the checkout; without it the run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Named metrics printed for people, per workload: the end-to-end figures a
# later change quotes.  The gated subset is END_TO_END below.
NAMED = {
    "train-n200": ("setup_s", "train_s", "epochs_per_s", "peak_rss_mb", "failed_ratio"),
    "pipeline-n2000": (
        "setup_s",
        "chain_s",
        "synth_s",
        "train_s",
        "epochs_per_s",
        "embed_s",
        "probe_s",
        "peak_rss_mb",
        "failed_ratio",
    ),
    "walk-cycle": ("setup_s", "walk_s", "random_s", "ctmc_s", "peak_rss_mb", "failed_ratio"),
}
UNITS = {"epochs_per_s": "1/s", "peak_rss_mb": "MB", "failed_ratio": "ratio"}

# Reported with --trace 0 on every workload.  ``op_s`` is the workload's
# main timing: train_s on train-n200, chain_s on pipeline-n2000 and walk_s
# on walk-cycle.
END_TO_END = (("setup_s", "s"), ("op_s", "s"), ("peak_rss_mb", "MB"))

# Reported with --trace 1 on every workload; 0 where a workload does not
# reach the layer.  Values are per operation (setup plus operation).
CALLS = (
    "special.ml",
    "special.dml_dalpha",
    "special.quad",
    "graphs.eigendecompose",
    "solver.solve_linear_spectral",
    "encoder.encoder_forward",
    "losses.dominant_direction",
)
BUSY = (
    "special.ml",
    "special.dml_dalpha",
    "graphs.eigendecompose",
    "graphs.build_graph",
    "graphs.normalized_laplacian",
    "solver.solve_linear_spectral",
    "encoder.encoder_forward",
    "losses.dominant_direction",
    "diagnostics.linear_probe",
    "diagnostics.random_walk_sim",
    "diagnostics.ctmc_walk_sim",
    "data.synth_sbm",
    "data.save_dataset",
    "data.load_dataset",
    "data.save_matrix",
    "data.load_matrix",
)
CLI_COMMANDS = ("synth", "train", "embed", "probe")
LAYERS = (
    "special",
    "graphs",
    "solver",
    "encoder",
    "losses",
    "training",
    "diagnostics",
    "data",
    "cli",
    "bench",
)


def per_layer_units() -> list[tuple[str, str]]:
    names = [(f"{f}.calls", "count") for f in CALLS]
    names += [(f"{f}.busy_s", "s") for f in BUSY]
    names += [
        ("special.share", "ratio"),
        ("graphs.basis_mb", "MB"),
        ("training.avla.self_s", "s"),
        ("training.epoch_s", "s"),
        ("training.epochs", "count"),
        ("training.rounds", "count"),
        ("training.merges", "count"),
        ("training.useful_epoch_ratio", "ratio"),
        ("diagnostics.random_walk_sim.walkers_per_s", "1/s"),
        ("diagnostics.ctmc_walk_sim.walkers_per_s", "1/s"),
        ("data.bytes_written", "B"),
        ("data.bytes_read", "B"),
        ("cli.import_s", "s"),
    ]
    names += [(f"cli.{c}.main_s", "s") for c in CLI_COMMANDS]
    names += [(f"{layer}.self_s", "s") for layer in LAYERS]
    names += [
        ("trace.untraced_remainder_s", "s"),
        ("trace.wall_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.overhead_ratio", "ratio"),
    ]
    return names


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def machine_facts() -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": usable_cores(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def tail(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            q = statistics.quantiles(samples, n=1000, method="inclusive")
            return f"p{p:g} {q[int(round(p * 10)) - 1]:.6g}"
    return "no percentile with 10 samples beyond it"


def run_ops(seconds: float, started: float, step, min_steps: int = 1) -> list[dict]:
    """Closed loop: repeat ``step`` while one more of the last one's length fits.

    The first ``min_steps`` always run, so a run lasts at most ``seconds``
    or ``min_steps`` steps, whichever is longer (plus set-up), which keeps
    the total time of many runs predictable.
    """
    ops = [step() for _ in range(min_steps)]
    while perf_counter() - started + ops[-1]["wall"] <= seconds:
        ops.append(step())
    return ops


def one_op(wl, state, tracer=None, with_setup=False) -> dict:
    t0 = perf_counter()
    try:
        if with_setup:
            state = traced_setup(wl, tracer)
        out = wl.op(state, tracer)
        wall = perf_counter() - t0
        errors = wl.check(state, out)
    except Exception as exc:  # a failed operation is counted, and the run goes on
        wall = perf_counter() - t0
        out, errors = {"times": {}}, [f"{type(exc).__name__}: {exc}"]
    return {"out": out, "wall": wall, "errors": errors}


def traced_setup(wl, tracer):
    if tracer is None:
        return wl.setup()
    with tracer.span("bench.setup"):
        return wl.setup()


def make_workload(name: str, seed: int, toy: bool):
    import workloads

    return workloads.WORKLOADS[name](seed, toy=toy)


def end_to_end(wl, seconds: float) -> dict:
    """Time a batch of setups, then operations, each followed by another batch.

    Spreading the setup samples over the run keeps ``setup_s`` from
    reflecting only the machine's state in its first second.
    """
    setup_times = []

    def setups():
        for _ in range(wl.setup_batch):
            t0 = perf_counter()
            state = wl.setup()
            setup_times.append(perf_counter() - t0)
        return state

    state = setups()

    def step() -> dict:
        op = one_op(wl, state)
        setups()
        return op

    ops = run_ops(seconds, perf_counter(), step, wl.min_ops)
    samples = {"setup_s": setup_times}
    for op in ops:
        for key, value in op["out"]["times"].items():
            samples.setdefault(key, []).append(value)
    primary = samples.get(wl.primary) or [op["wall"] for op in ops]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "op_s": statistics.median(primary),
        "peak_rss_mb": peak_rss_mb(),
    }
    return {"ops": ops, "samples": samples, "metrics": metrics}


def traced(wl, seconds: float, run_id: str) -> dict:
    """Traced and untraced operations, alternating, each with its own setup.

    The setup runs once first, untimed, to load what setup loads lazily.
    The traced operation of each pair runs first, so whatever the first
    operation of a process pays beyond that counts against tracing: the
    reported overhead errs high.
    """
    import spans

    wl.setup()
    tracer = spans.Tracer(run_id)
    plain, ops = [], []

    def pair() -> dict:
        uninstall = spans.install(tracer)
        try:
            ops.append(one_op(wl, None, tracer, with_setup=True))
        finally:
            uninstall()
        plain.append(one_op(wl, None, with_setup=True))
        return {"wall": plain[-1]["wall"] + ops[-1]["wall"]}

    run_ops(seconds, perf_counter(), pair)
    records = tracer.records()
    for op in ops:
        for span_id, path in op["out"].get("child_spans", ()):
            if os.path.isfile(path):
                spans.graft(records, spans.read(path), span_id)
                os.remove(path)
    return {"ops": plain + ops, "untraced": plain, "traced": ops, "spans": records}


def layer_metrics(wl, result: dict) -> dict:
    import spans

    ops = result["traced"]
    n_ops = len(ops)
    an = spans.analyse(result["spans"])
    calls, busy = an["calls"], an["busy"]
    wall = sum(op["wall"] for op in ops)
    roots = sum(s["end"] - s["start"] for s in result["spans"] if s["parent"] < 0)
    outs = [op["out"] for op in ops]

    def total(key):
        return sum(o.get(key, 0) for o in outs)

    m = {}
    for f in CALLS:
        m[f"{f}.calls"] = calls.get(f, 0) / n_ops
    for f in BUSY:
        m[f"{f}.busy_s"] = busy.get(f, 0.0) / n_ops
    m["special.share"] = an["layer_busy"].get("special", 0.0) / wall
    m["graphs.basis_mb"] = wl.n**2 * 8 / 1e6 if calls.get("graphs.eigendecompose") else 0.0
    epochs = total("epochs")
    m["training.avla.self_s"] = an["self"].get("training.avla", 0.0) / n_ops
    m["training.epoch_s"] = busy.get("training.avla", 0.0) / epochs if epochs else 0.0
    m["training.epochs"] = epochs / n_ops
    m["training.rounds"] = total("rounds") / n_ops
    m["training.merges"] = total("merges") / n_ops
    m["training.useful_epoch_ratio"] = total("final_round_epochs") / epochs if epochs else 0.0
    walkers = getattr(wl, "walkers", 0)
    for sim in ("random_walk_sim", "ctmc_walk_sim"):
        t = busy.get(f"diagnostics.{sim}", 0.0)
        m[f"diagnostics.{sim}.walkers_per_s"] = walkers * n_ops / t if t else 0.0
    m["data.bytes_written"] = (
        sum(v for k, v in an["bytes"].items() if k.startswith("data.save_")) / n_ops
    )
    m["data.bytes_read"] = (
        sum(v for k, v in an["bytes"].items() if k.startswith("data.load_")) / n_ops
    )
    imports = calls.get("cli.import", 0)
    m["cli.import_s"] = busy.get("cli.import", 0.0) / imports if imports else 0.0
    for c in CLI_COMMANDS:
        m[f"cli.{c}.main_s"] = busy.get(f"cli.{c}.main", 0.0) / n_ops
    for layer in LAYERS:
        m[f"{layer}.self_s"] = an["layer_self"].get(layer, 0.0) / n_ops
    m["trace.untraced_remainder_s"] = (wall - roots) / n_ops
    m["trace.wall_s"] = wall / n_ops
    traced_wall = statistics.median(op["wall"] for op in ops)
    untraced_wall = statistics.median(op["wall"] for op in result["untraced"])
    m["trace.overhead_s"] = traced_wall - untraced_wall
    m["trace.overhead_ratio"] = m["trace.overhead_s"] / untraced_wall
    return m


def report(wl, result: dict, trace: int, seed: int, facts: dict) -> dict:
    ops = result["ops"]
    failed = sum(1 for op in ops if op["errors"])
    mode = "traced" if trace else "end to end"
    print(f"{wl.name} seed={seed} {mode}: {len(ops)} operations, closed loop, 1 caller")
    for i, op in enumerate(ops):
        for err in op["errors"]:
            print(f"  operation {i} FAILED: {err}")
    if trace:
        units = per_layer_units()
        metrics = result["layer_metrics"]
        for name, unit in units:
            print(f"  {name:44s} {metrics[name]:.6g} {unit}")
    else:
        units = list(END_TO_END)
        metrics = result["metrics"]
        samples = result["samples"]
        for name in NAMED[wl.name]:
            if name == "failed_ratio":
                print(f"  {name:14s} {failed}/{len(ops)} = {failed / len(ops):.6g} ratio")
            elif name == "peak_rss_mb":
                print(f"  {name:14s} {metrics[name]:.6g} MB (1 sample, whole run)")
            else:
                vals = samples.get(name, [])
                if not vals:
                    print(f"  {name:14s} no sample")
                    continue
                unit = UNITS.get(name, "s")
                print(
                    f"  {name:14s} median {statistics.median(vals):.6g} {unit}, "
                    f"n={len(vals)}, {tail(vals)}"
                )
        print(f"  {'op_s':14s} = {wl.primary} median {metrics['op_s']:.6g} s")
    for key in ("probe_test_acc", "tv"):
        seen = [op["out"][key] for op in ops if key in op["out"]]
        if seen:
            print(f"  recorded {key}: {seen[-1]}")
    print("facts: " + json.dumps(facts, sort_keys=True))
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }


def run_one(name: str, seed: int, seconds: float, trace: int, toy: bool, facts: dict) -> dict:
    """Run one workload and write its result; the files keep only the latest run."""
    run_id = f"{name}-seed{seed}-trace{trace}-{os.getpid()}"
    os.environ["PERFBENCH_RUN_ID"] = run_id  # read by traced child processes
    wl = make_workload(name, seed, toy)
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    if trace:
        import spans

        result = traced(wl, seconds, run_id)
        result["layer_metrics"] = layer_metrics(wl, result)
        spans.write(result["spans"], os.path.join(out_dir, f"spans-{name}.jsonl"))
    else:
        result = end_to_end(wl, seconds)
    line = report(wl, result, trace, seed, facts)
    summary = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "facts": facts,
        "samples": result.get("samples", {}),
        **line,
    }
    with open(os.path.join(out_dir, f"result-{name}-trace{trace}.json"), "w") as fh:
        json.dump(summary, fh, indent=2)
    return line


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("train-n200", "pipeline-n2000", "walk-cycle", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="toy sizes, for the benchmark's self-test")
    return parser.parse_args(argv)


def prepare_environment() -> None:
    """Import the checkout's fracgcl and cap BLAS threads before numpy loads."""
    if not os.path.isfile(os.path.join(SRC, "fracgcl", "__init__.py")):
        raise SystemExit(f"error: no fracgcl sources under {SRC}")
    cores = str(usable_cores())
    for var in BLAS_VARS:
        os.environ[var] = cores
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = SRC if not old else SRC + os.pathsep + old
    sys.path.insert(0, SRC)


def main(argv=None) -> int:
    args = parse_args(argv)
    prepare_environment()
    facts = machine_facts()
    names = NAMED if args.workload == "all" else (args.workload,)
    lines = {
        name: run_one(name, args.seed, args.seconds, args.trace, args.toy, facts)
        for name in names
    }
    if args.workload == "all":
        print(json.dumps(lines))
    else:
        print(json.dumps(lines[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
