"""Benchmark of the link-prediction program: one workload per process.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--tiny]

Run from the root of a source checkout; the program is imported from its
``src`` directory and nowhere else. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: with ``--trace 0`` the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a separate traced run. Human-readable details go to
standard error. See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time

import host

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# fresh set-up processes before the timed rounds, and as many again after them
SETUP_PROBES = 3
SETUP_PROBE_CALLS = 20
PROBE_TIMEOUT_S = 60
WORKLOAD_NAMES = ("experiment_sbm250_ricci", "pairs_k2_hop", "diagrams_rand300")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="small inputs and one round, for the self-tests")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program():
    """Import homolink from the checkout's src directory; exit without a result otherwise."""
    sys.path.insert(0, SRC)
    try:
        import homolink
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import the program from {SRC}: {exc}")
    if not os.path.realpath(homolink.__file__).startswith(os.path.realpath(SRC) + os.sep):
        sys.exit(f"perfbench: homolink was imported from {homolink.__file__}, not from {SRC}")


def setup_seconds(args) -> tuple[list[float], list[float]]:
    """Time from process start to the first timed operation, in fresh processes.

    Returns the samples and the probe times (ms) taken in this process
    before, between and after them, while no set-up process runs.
    """
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload, "--seed", str(args.seed), "--setup-probe"]
    if args.tiny:
        cmd.append("--tiny")
    samples, probe = [], [host.probe_ms(SETUP_PROBE_CALLS)]
    for _ in range(1 if args.tiny else SETUP_PROBES):
        samples.append(setup_once(cmd))
        probe.append(host.probe_ms(SETUP_PROBE_CALLS))
    return samples, probe


def setup_once(cmd) -> float:
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        try:
            ready, _, _ = select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)
            line = proc.stdout.readline() if ready else ""
            t1 = time.perf_counter()
            _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup probe failed ({proc.returncode}): {err.strip()[-2000:]}")
    return t1 - t0


def measure(wl, seconds: float, tracer=None, sampler=None):
    """Whole rounds until ``seconds`` have passed (at least one).

    A round runs every kind over every item. Returns, per round and kind,
    each operation's (seconds, start, end), without the time the host
    sampler's handler took from it; the first round's outputs; and the
    operations that raised and those of later rounds whose output differs
    from the first round's, each as (round, kind, item, message). Only the
    first round's outputs are kept, so memory does not grow with the rounds.
    """
    times, first, raised, differs = [], None, [], []
    begin = time.perf_counter()
    while not times or time.perf_counter() - begin < seconds:
        t_round, out_round = {}, {}
        for kind in wl.kinds:
            t_round[kind], out_round[kind] = [], []
            for item in wl.items:
                with tracer.span("op:" + kind) if tracer else contextlib.nullcontext():
                    busy = sampler.busy if sampler else 0.0
                    t0 = time.perf_counter()
                    try:
                        out = wl.run(kind, item)
                    except Exception as exc:  # a failed operation is counted, not fatal
                        out = exc
                    t1 = time.perf_counter()
                    stolen = (sampler.busy - busy) if sampler else 0.0
                t_round[kind].append((t1 - t0 - stolen, t0, t1))
                out_round[kind].append(out)
        r = len(times)
        times.append(t_round)
        first = first or out_round
        for kind in wl.kinds:
            for i, out in enumerate(out_round[kind]):
                if isinstance(out, Exception):
                    raised.append((r, kind, i, f"{type(out).__name__}: {out}"))
                elif r and not isinstance(first[kind][i], Exception) and not wl.same(kind, first[kind][i], out):
                    differs.append((r, kind, i, "output differs from the first round's"))
    return times, first, raised, differs


def tally(wl, times, first, raised, differs):
    """(attempted, failed, correct, messages) over every operation of every round.

    An operation fails when it raises or its output fails a check.
    ``correct`` speaks of the operations that did not raise.
    """
    attempted = sum(len(ts) for t in times for ts in t.values())
    wrong = differs + [(0, kind, i, m) for kind, i, m in wl.check(first)]
    bad = raised + wrong
    messages = [f"round {r} {kind} item {i}: {m}" for r, kind, i, m in bad]
    return attempted, len({(r, kind, i) for r, kind, i, _ in bad}), not wrong, messages


def scaled(t, sampler) -> float:
    """An operation's seconds on the reference host: times ``host.REFERENCE_MS`` over the probe around it."""
    seconds, start, end = t
    return seconds * host.REFERENCE_MS / sampler.probe_ms_at(start, end) if sampler else seconds


def rate(times, kind, sampler=None) -> float:
    """Operations per second: the median over the rounds of each operation's time, summed."""
    per_item = zip(*(t[kind] for t in times))
    return len(times[0][kind]) / sum(statistics.median(scaled(t, sampler) for t in ts) for ts in per_item)


def round_seconds(times, sampler=None) -> list[float]:
    return [sum(scaled(t, sampler) for ts in r.values() for t in ts) for r in times]


def block_seconds(times) -> list[dict]:
    return [{kind: sum(t[0] for t in ts) for kind, ts in r.items()} for r in times]


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    import_program()
    import workloads

    workdir = os.path.join(OUT, f"inputs-{os.getpid()}")
    try:
        if args.setup_probe:
            workloads.WORKLOADS[args.workload](args.seed, args.tiny, workdir).warm_up()
            print("ready", flush=True)
            return 0
        probe_ms = host.probe_ms()
        setup, setup_ms = ([], []) if args.trace else setup_seconds(args)
        wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny, workdir)
        wl.warm_up()
        seconds = 0.0 if args.tiny else args.seconds
        if args.trace:
            return traced(args, wl, seconds, probe_ms)
        with host.Sampler() as sampler:
            times, first, raised, differs = measure(wl, seconds, sampler=sampler)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        after, after_ms = setup_seconds(args)
        setup, setup_ms = setup + after, setup_ms + after_ms
        attempted, failed, correct, messages = tally(wl, times, first, raised, differs)
        metrics = {
            "setup_s": (statistics.median(setup) * host.REFERENCE_MS / statistics.median(setup_ms), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "ops_per_s": (rate(times, wl.kinds[0], sampler), "1/s"),
            "ref_ops_per_s": (rate(times, wl.kinds[1], sampler), "1/s"),
        }
        info = {"workload": args.workload, "seed": args.seed, "rounds_s": block_seconds(times), "setup_samples_s": setup,
                "setup_probe_ms": statistics.median(setup_ms), "host.probe_ms": probe_ms, "io.load_s": wl.load_s, "failures": messages[:20],
                "raw_ops_per_s": [rate(times, kind) for kind in wl.kinds],
                "sampled_probe_ms": statistics.quantiles(sampler.ms, n=4)}
        if hasattr(wl, "aucs"):
            info["test_auc"] = wl.aucs(first)
        report(info, correct, attempted, failed, metrics)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def traced(args, wl, seconds: float, probe_ms: float) -> int:
    """Untraced and traced rounds in turn; per-layer metrics per traced round.

    The tracing overhead is the median, over the pairs of neighbouring
    rounds, of the traced round's host-scaled time over the untraced one's.
    """
    import tracing

    spans, plain, traced_times, raised, differs, first = [], [], [], [], [], None
    with host.Sampler() as sampler:
        # span times leave out the sampler's handler, like operation times do
        tracer = tracing.Tracer(clock=lambda: time.perf_counter() - sampler.busy)
        begin = time.perf_counter()
        while not traced_times or time.perf_counter() - begin < seconds:
            for on in (False, True):
                if on:
                    tracer.install(hook=getattr(wl, "observe", None))
                try:
                    times, out, round_raised, _ = measure(wl, 0.0, tracer if on else None, sampler)
                finally:
                    tracer.uninstall()
                r = len(plain) + len(traced_times)
                (traced_times if on else plain).append(times[0])
                if on:
                    spans.append(tracer.arrays())
                    tracer.clear()
                raised += [(r, kind, i, m) for _, kind, i, m in round_raised]
                first = first or out
                differs += [
                    (r, kind, i, "output differs from the first round's")
                    for kind in wl.kinds
                    for i, (a, b) in enumerate(zip(first[kind], out[kind]))
                    if r and not isinstance(a, Exception) and not isinstance(b, Exception) and not wl.same(kind, a, b)
                ]
    attempted, failed, correct, messages = tally(wl, plain + traced_times, first, raised, differs)
    per_round = [tracing.layer_metrics(s, tracer.names, tracer.layers) for s in spans]
    absent = tracing.absent_metrics(tracer.absent)
    metrics = {name: (statistics.median(m[name] for m in per_round), tracing.unit_of(name)) for name in per_round[0]}
    overhead = statistics.median(
        t / p for t, p in zip(round_seconds(traced_times, sampler), round_seconds(plain, sampler))
    ) - 1.0
    metrics["io.load_s"] = (wl.load_s, "s")
    metrics["host.probe_ms"] = (probe_ms, "ms")
    metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
    summary = {
        "workload": args.workload, "seed": args.seed, "absent": absent, "absent_targets": tracer.absent,
        "untraced_rounds_s": block_seconds(plain), "traced_rounds_s": block_seconds(traced_times), "per_round": per_round,
        "failures": messages[:20], "metrics": {k: v for k, (v, _u) in metrics.items()},
    }
    tracing.write_trace(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}"), tracer, spans, summary)
    info = {"workload": args.workload, "seed": args.seed, "absent": absent, "rounds": len(traced_times),
            "trace.overhead_pct": 100.0 * overhead, "failures": messages[:20]}
    report(info, correct, attempted, failed, metrics)
    return 0


def report(info, correct, attempted, failed, metrics) -> None:
    print(json.dumps(info, default=str), file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    sys.exit(main())
