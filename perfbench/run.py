"""Benchmark of reviewaudit: closed-loop workloads timed from outside the program.

Run from the repository root:

    python3 perfbench/run.py --workload audit-large --seed 1 --seconds 30 --trace 0

Workloads are described in workloads.py. One process drives one op at a
time; only numpy's own BLAS threads run beside it. A run:

1. sets up SETUPS times, each time generating the seed's inputs in a child
   process, and checks that every set-up wrote the same bytes;
2. runs ops for --seconds (at least once over every input, ending on a
   whole block of inputs), checking every op's output and running
   gc.collect() between ops, untimed;
3. prints a readable summary, then as its last line one JSON object with
   the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).

A fixed reference loop is timed in each set-up child and between ops,
outside the timed regions, and every end-to-end timing is divided by the
host factor from it (see hostspeed.py); the summary prints the wall times
beside them.

The traced run alternates untraced and traced ops on the same inputs, so it
also reports the tracer's own overhead. It keeps its spans under .perfbench/.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = BENCH_DIR.parent / ".perfbench"
SETUPS = 3
SETUP_TIMEOUT_S = 120
# No op starts after this many seconds, whatever the stopping rule below asks
# for, so that a run always ends well within 180 s.
HARD_STOP_S = 140

END_TO_END_UNITS = {"setup_s": "s", "op_p50_s": "s",
                    "records_per_s": "records/s", "peak_rss_mb": "MB"}


def _cpu_ticks() -> list[int]:
    with open("/proc/stat", encoding="ascii") as stream:
        return [int(v) for v in stream.readline().split()[1:9]]


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as stream:
            libs = {line.split()[-1] for line in stream
                    if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        dll = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(dll, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def machine_info() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as stream:
            cpu = next((line.split(":", 1)[1].strip() for line in stream
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas_threads": _blas_threads()}


def set_up(name: str, seed: int, workdir: Path, tiny: bool):
    """Generate the inputs SETUPS times; return (median wall, host factor,
    manifest, problems). A child's reference-loop samples give the factor,
    and their time is taken off its wall."""
    walls, samples, manifests = [], [], []
    for k in range(SETUPS):
        outdir = workdir / f"setup{k}"
        outdir.mkdir(parents=True)
        start = time.perf_counter()
        subprocess.run([sys.executable, str(BENCH_DIR / "workloads.py"), name, str(seed),
                        str(outdir), "1" if tiny else "0"],
                       check=True, timeout=SETUP_TIMEOUT_S, stdin=subprocess.DEVNULL)
        wall = time.perf_counter() - start
        manifests.append(json.loads((outdir / "manifest.json").read_text()))
        samples += manifests[-1]["host_samples"]
        walls.append(wall - sum(manifests[-1].pop("host_samples")))
        if k:
            shutil.rmtree(outdir)
    problems = []
    if len({m["inputs_sha256"] for m in manifests}) != 1:
        problems.append("set-ups from one seed wrote different input bytes")
    return statistics.median(walls), hostspeed.factor(samples), manifests[0], problems


def run(name: str, seed: int, seconds: float, trace: bool, started: float,
        tiny: bool = False, corrupt: frozenset = frozenset(), keep: bool = False) -> dict:
    """One benchmark run of a process that started at ``started``.

    ``tiny``, ``corrupt`` (op indices whose output is damaged before the
    check) and ``keep`` (leave the inputs in place) serve selfcheck.py.
    """
    workloads._import_reviewaudit()
    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
    import_s = time.perf_counter() - started

    workdir = WORK_DIR / f"{name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        generate_s, setup_factor, manifest, run_problems = set_up(name, seed, workdir, tiny)
        start = time.perf_counter()
        workload = workloads.WORKLOADS[name](workdir / "setup0", manifest)
        setup_wall_s = import_s + generate_s + time.perf_counter() - start

        machine = machine_info()
        ticks = _cpu_ticks()
        per_input = 2 if trace else 1  # traced runs pair an untraced and a traced op
        walls = {False: [], True: []}
        records = 0
        failed = 0
        failures = []
        host = hostspeed.HostSpeed()
        phase_start = time.perf_counter()
        i = 0
        # Stop once --seconds have passed, every input has run, and a block of
        # inputs with the workload's whole mix of shapes is complete, so the
        # op mix is the same in every run.
        while True:
            now = time.perf_counter()
            if now - started > HARD_STOP_S:
                break
            if (now - phase_start >= seconds and i >= workload.n_inputs * per_input
                    and i % (workload.block * per_input) == 0):
                break
            k = i // per_input
            traced = trace and i % 2 == 1
            if traced:
                tracer.begin_op(i)
            t0 = time.perf_counter()
            try:
                result, error = workload.op(k), None
            except (Exception, SystemExit) as exc:
                result, error = None, f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - t0
            if traced:
                tracer.end_op()
            problems = [error] if error else workload.check(k, result, corrupt=i in corrupt)
            if problems:
                failed += 1
                failures.append((i, problems))
            walls[traced].append(wall)
            if not traced:
                records += workload.records(k)
            del result
            gc.collect()
            host.catch_up()
            i += 1
        ticks_end = _cpu_ticks()
        digest, finish_problems = workload.finish()
        run_problems += finish_problems
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        if not keep:
            shutil.rmtree(workdir, ignore_errors=True)

    untraced = walls[False]
    summary = {
        "workload": name, "seed": seed, "trace": int(trace), "machine": machine,
        "steal_s": (ticks_end[7] - ticks[7]) / os.sysconf("SC_CLK_TCK"),
        "steal_share": (ticks_end[7] - ticks[7]) / max(sum(ticks_end) - sum(ticks), 1),
        "ops": i, "untraced_ops": len(untraced), "failed": failed,
        "setup_host_factor": setup_factor, "op_host_factor": host.factor(),
        "op_host_samples": len(host.samples),
        "wall": {"setup_s": setup_wall_s, "op_p50_s": statistics.median(untraced),
                 "records_per_s": records / sum(untraced)},
        "op_p90_s": (statistics.quantiles(untraced, n=10, method="inclusive")[8]
                     if len(untraced) >= 100 else None),
        "digest": digest, "problems": run_problems, "failures": failures,
        "workdir": str(workdir),
    }
    metrics = {
        "setup_s": summary["wall"]["setup_s"] / setup_factor,
        "op_p50_s": summary["wall"]["op_p50_s"] / summary["op_host_factor"],
        "records_per_s": summary["wall"]["records_per_s"] * summary["op_host_factor"],
        "peak_rss_mb": peak_rss_mb,
    }
    summary["end_to_end"] = {m: {"value": v, "unit": END_TO_END_UNITS[m]}
                             for m, v in metrics.items()}
    if trace:
        layers, uncalled, self_problems = tracer.report()
        ratios = [t / u for u, t in zip(walls[False], walls[True])]
        layers["trace.overhead_ratio"] = {"value": statistics.median(ratios) - 1.0,
                                          "unit": "ratio"}
        layers["trace.uncalled_layers"] = {"value": len(uncalled), "unit": "count"}
        summary.update(per_layer=layers, uncalled=uncalled, traced_ops=len(walls[True]))
        run_problems += self_problems
        WORK_DIR.mkdir(exist_ok=True)
        summary["spans_file"] = str(WORK_DIR / f"spans-{name}-seed{seed}.jsonl.gz")
        tracer.write(summary["spans_file"])
    summary["correct"] = failed == 0 and not run_problems
    return summary


def print_summary(s: dict) -> None:
    m = s["machine"]
    print(f"workload {s['workload']}  seed {s['seed']}  trace {s['trace']}")
    print(f"machine: nproc={m['nproc']} cpu={m['cpu']!r} python={m['python']} "
          f"numpy={m['numpy']} blas_threads={m['blas_threads']}")
    print(f"steal: {s['steal_s']:.2f} s over the timed phase "
          f"({100 * s['steal_share']:.2f}% of host CPU time)")
    print(f"host factor: {s['setup_host_factor']:.4f} in set-up (median of "
          f"{2 * workloads.SETUP_SAMPLES * SETUPS} samples), {s['op_host_factor']:.4f} over "
          f"the ops ({s['op_host_samples']} samples); timings are wall / factor, wall in []")
    n = s["untraced_ops"]
    e2e = {k: v["value"] for k, v in s["end_to_end"].items()}
    wall = s["wall"]
    print(f"  setup_s          {e2e['setup_s']:.4f} s  [{wall['setup_s']:.4f}]  "
          f"(median of {SETUPS} set-ups)")
    print(f"  op_p50_s         {e2e['op_p50_s']:.4f} s  [{wall['op_p50_s']:.4f}]  (n={n} ops)")
    if s["op_p90_s"] is not None:
        print(f"  op_p90_s         {s['op_p90_s'] / s['op_host_factor']:.4f} s  "
              f"[{s['op_p90_s']:.4f}]  (n={n} ops)")
    print(f"  records_per_s    {e2e['records_per_s']:.1f} records/s  "
          f"[{wall['records_per_s']:.1f}]  (n={n} ops)")
    print(f"  peak_rss_mb      {e2e['peak_rss_mb']:.1f} MB  (1 process)")
    print(f"  ops_failed_ratio {s['failed'] / max(s['ops'], 1):.4f}  "
          f"({s['failed']} of {s['ops']} ops)")
    print(f"digest sha256 {s['digest']}")
    if s["trace"]:
        print(f"traced ops: {s['traced_ops']}; spans: {s['spans_file']}")
        for metric, body in s["per_layer"].items():
            print(f"  {metric:44s} {body['value']:.6g} {body['unit']}")
        print(f"never called: {', '.join(s['uncalled']) or 'none'}")
    for i, problems in s["failures"][:5]:
        print(f"op {i} failed: {'; '.join(problems)}", file=sys.stderr)
    for problem in s["problems"]:
        print(f"run check failed: {problem}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        summary = run(args.workload, args.seed, args.seconds, bool(args.trace), START)
    except (ImportError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    print_summary(summary)
    metrics = summary["per_layer"] if args.trace else summary["end_to_end"]
    print(json.dumps({"correct": summary["correct"], "attempted": summary["ops"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
