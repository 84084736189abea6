"""Run one benchmark workload and print its metrics as the last line of stdout.

Usage (from the repository root):

    python3 benchmark/run.py --workload train-ieee13 --seed 2 --seconds 25 --trace 0

One process, one thread, BLAS limited to one thread. The run measures set-up
in fresh interpreters, then repeats one seeded unit of work (a round) until
``--seconds`` is spent, checking every output against the independent model
and every repeat against the first. With ``--trace 1`` rounds alternate
between untraced and traced, the per-layer metrics come from the traced
ones, and the spans of the first traced round are written under
``.bench_out/``.

Times are reported in reference seconds. The control loop of ``control.py``
runs before the first round or set-up probe and after every one; a reported
time is the mean wall time scaled by the reference duration of the control
over the mean of the control samples around those rounds or probes. A host that is slower for
a while slows the control as well, so it does not read as a slower program.
The raw figures are printed on the line before the result.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is first imported

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_SAMPLES = 7       # timed fresh-interpreter set-ups, after one warm-up
MIN_ROUNDS = 3          # rounds run even when --seconds is shorter
MIN_TRACED_ROUNDS = 2   # traced rounds of a --trace 1 run, likewise


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Ledger:
    """Operations attempted and failed; an operation is a call or a check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.errors: list[str] = []

    def call(self, fn, *args, **kwargs):
        """A program call; a raise counts as a failed operation, not a fault."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # the run goes on and reports the failure
            self.failed += 1
            self.errors.append(f"{getattr(fn, '__name__', fn)}: {exc!r}")
            return None

    def check(self, fn, *args):
        """An output check; any raise means the output is wrong."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # a check that cannot run rejects the output
            self.failed += 1
            self.correct = False
            self.errors.append(f"{fn.__name__}: {exc}")
            return None


def reference_seconds(rounds, reference_s: float) -> float:
    """Mean round wall time over the mean control time around those rounds,
    in reference seconds. ``rounds`` holds (wall, control) pairs, where the
    control is the mean of the samples taken just before and just after."""
    return reference_s * sum(w for w, _ in rounds) / sum(c for _, c in rounds)


def measure_setup(spec, seed, reference_loop):
    """(seconds, control) pairs of ``SETUP_SAMPLES`` fresh-interpreter set-ups,
    each control the mean of the samples just before and just after."""
    cmd = [sys.executable, str(HERE / "probe_setup.py"), spec.name, str(seed)]

    def probe() -> float:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        return float(done.stdout.strip().splitlines()[-1])

    probe()  # the first one also writes the byte-code caches
    pairs, controls = [], [reference_loop()]
    for _ in range(SETUP_SAMPLES):
        seconds = probe()
        controls.append(reference_loop())
        pairs.append((seconds, (controls[-2] + controls[-1]) / 2))
    return pairs


def main(argv=None) -> int:
    if not (SRC / "gridrestore" / "__init__.py").is_file():
        print(f"benchmark: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from specs import SPECS, build

    args = parse_args(argv, SPECS)
    import gridrestore as gr
    from checks import (
        check_execution,
        check_oracle,
        check_repeat,
        check_training_logs,
        fingerprint,
    )
    from control import REFERENCE_S, reference_loop
    from independent import Grid
    from tracing import METRICS, Tracer

    spec = SPECS[args.workload]
    setup = measure_setup(spec, args.seed, reference_loop)
    feeder, cfg = build(gr, spec, args.seed)
    grid = Grid(feeder)
    optimum = grid.optimum()
    ledger = Ledger()
    verdicts: dict = {}
    tracer = Tracer() if args.trace else None
    feeder_build_s = []
    if tracer:
        tracer.install()
        for _ in range(5):
            tracer.new_round()
            gr.builtin_feeder(spec.feeder)
            feeder_build_s.append(tracer.seconds["builtins.builtin_feeder.s"])
        tracer.uninstall()

    def one_round():
        """(program wall seconds or None, digest of the outputs)."""
        start = time.perf_counter()
        if spec.kind == "oracle":
            result = ledger.call(gr.brute_force, feeder)
            wall = time.perf_counter() - start
            if result is None:
                return None, None
            ledger.check(check_oracle, result, feeder, grid, optimum)
            return wall, fingerprint(repr(result))
        out = ledger.call(gr.train, feeder, cfg)
        if out is None:
            return None, None
        models, logs = out
        trace = ledger.call(gr.execute, models, feeder, max_steps=spec.execute_steps)
        wall = time.perf_counter() - start
        if trace is None:
            return None, None
        ledger.check(check_training_logs, logs, cfg, grid, optimum)
        ledger.check(check_execution, trace, feeder, grid, spec.execute_steps, verdicts)
        return wall, fingerprint(
            [(x.episode, x.reward, x.restored_kw, x.violations, x.epsilon, x.steps)
             for x in logs],
            [a for pair in models for a in (*pair.main.weights, *pair.main.biases)],
            [(e.step, e.agent, e.breaker, e.toggle, e.served_kw, e.reward, e.violation)
             for e in trace.entries],
            trace.step_states,
        )

    plain, traced, controls = [], [], [reference_loop()]
    layer_counts, layer_seconds, spans = None, [], []
    first_digest = None
    min_rounds = 2 * MIN_TRACED_ROUNDS if tracer else MIN_ROUNDS
    attempts = 0
    began = time.perf_counter()
    while attempts < min_rounds or (
        time.perf_counter() + (time.perf_counter() - began) / attempts
        <= began + args.seconds
    ):
        traced_round = tracer is not None and attempts % 2 == 1
        attempts += 1
        if traced_round:
            tracer.new_round()
            tracer.record_spans = layer_counts is None
            tracer.install()
        try:
            wall, digest = one_round()
        finally:
            if traced_round:
                tracer.uninstall()
        controls.append(reference_loop())
        if wall is None:
            continue
        control = (controls[-2] + controls[-1]) / 2
        (traced if traced_round else plain).append((wall, control))
        if first_digest is None:
            first_digest = digest
        else:
            ledger.check(check_repeat, digest, first_digest)
        if traced_round:
            counts = tracer.round_counts()
            if layer_counts is None:
                layer_counts, spans = counts, tracer.spans
            else:
                ledger.check(check_repeat, fingerprint(sorted(counts.items())),
                             fingerprint(sorted(layer_counts.items())))
            scale = REFERENCE_S / control
            layer_seconds.append({k: v * scale for k, v in tracer.round_seconds().items()})

    if not plain:
        print("benchmark: no round completed; see the failures above", file=sys.stderr)
        for line in ledger.errors[:20]:
            print(f"  {line}", file=sys.stderr)
        return 1
    run_s = reference_seconds(plain, REFERENCE_S)
    summary = (
        f"# {spec.name} seed {args.seed}: {len(plain)} plain + {len(traced)} traced rounds; "
        f"raw round median {statistics.median(w for w, _ in plain):.4f} s, "
        f"control median {statistics.median(controls):.4f} s "
        f"(reference {REFERENCE_S} s), run {run_s:.4f} reference s, "
        f"raw set-up median {statistics.median(s for s, _ in setup):.4f} s"
    )
    if tracer:
        # Every per-layer metric is printed; one whose layer did not run reads 0.
        metrics = {}
        for name, (_, unit) in METRICS.items():
            if unit == "count":
                value = (layer_counts or {}).get(name, 0)
            elif name == "builtins.builtin_feeder.s":
                value = statistics.median(feeder_build_s)
            else:
                value = statistics.median([r[name] for r in layer_seconds] or [0.0])
            metrics[name] = {"value": value, "unit": unit}
        if tracer.unhooked():
            summary += f"; not hooked (read 0): {', '.join(tracer.unhooked())}"
        if traced:
            overhead = reference_seconds(traced, REFERENCE_S) / run_s - 1.0
            summary += f"; tracing overhead {overhead:+.1%}"
            OUT_DIR.mkdir(exist_ok=True)
            out = OUT_DIR / f"trace-{spec.name}-seed{args.seed}.json"
            out.write_text(json.dumps({"workload": spec.name, "seed": args.seed,
                                       "spans": spans}) + "\n")
    else:
        metrics = {
            "setup_s": {"value": reference_seconds(setup, REFERENCE_S), "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    for line in ledger.errors[:20]:
        print(f"# failed: {line}")
    print(summary)
    print(json.dumps({
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
