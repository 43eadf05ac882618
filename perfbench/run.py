#!/usr/bin/env python3
"""Benchmark of the `mdl` CLI, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py                      # every workload, both modes
    python3 perfbench/run.py --workload residues --seed 3 --seconds 55 --trace 0

With --trace 0 each round runs the workload's CLI invocations, one fresh
`python -m mdl.cli ... --no-timestamp` process at a time (a closed loop
with one client), and reports the median wall time, CPU time and peak RSS
per round, plus the median time of a fresh `import mdl.cli`; times are
scaled by a reference loop timed around each child (see reference_loop).  With
--trace 1 the same invocations run in this process through
`mdl.cli.run(parse_config(argv))`, once with span wrappers around the
library's public functions and once without, followed by direct probes of
single layers; the spans go to perfbench/out/ as JSON lines.  Every report
is compared with its committed golden and with exact invariants.  The last
line of standard output is one JSON object with the metrics that
BENCHMARK.json names.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.metadata
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from tracer import Tracer, self_times
from workloads import PRIME_COUNT, PRIME_POWER_COUNT, WORKLOADS, check_report, load_goldens

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SETUP_RUNS = 7  # fresh `import mdl.cli` processes per run; the median is reported
TIMEOUT_S = 60  # per process; the longest invocation takes about 2 s
REFERENCE_MODULUS = 3**101
REFERENCE_S = 0.03  # reference_loop() on a quiet 2.1 GHz host: sets the unit of scaled times


class Run:
    """Counts operations and failures, and collects metric samples."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.units: dict[str, str] = {}
        self.top = ""  # layer and span with the largest self time in the last traced round
        self.extra: dict = {}  # raw observations kept in the result file

    def check(self, argv: tuple[str, ...], text: str, goldens: dict[str, str]) -> None:
        self.attempted += 1
        problem = check_report(argv, text, goldens)
        if problem is not None:
            self.failures.append(problem)

    def add(self, name: str, value: float, unit: str) -> None:
        self.samples[name].append(value)
        self.units[name] = unit

    def medians(self) -> dict[str, dict]:
        return {
            name: {"value": statistics.median(values), "unit": self.units[name], "n": len(values)}
            for name, values in self.samples.items()
        }


def host_info() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "loadavg": os.getloadavg(),
        "src_mdl_lines": sum(
            len(p.read_text().splitlines()) for p in sorted((SRC / "mdl").rglob("*.py"))
        ),
    }


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    # Children cache bytecode under src/, as an installed package would have it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(cmd: list[str], env: dict[str, str]) -> tuple[int | None, str, str, float, float, float]:
    """Run one process to completion.

    Returns (exit code or None on timeout, stdout, stderr, wall s, user+sys
    CPU s, peak RSS MB).  Reaping with os.wait4 gives this process's own
    rusage; RUSAGE_CHILDREN would report the high-water RSS of all children.
    """
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        start = perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        pidfd = os.pidfd_open(proc.pid)
        try:
            exited, _, _ = select.select([pidfd], [], [], TIMEOUT_S)
            if not exited:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        code = proc.returncode if exited else None
        return (
            code, out.read().decode(), err.read().decode(errors="replace"),
            wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
        )


def reference_loop() -> float:
    """Seconds this process takes for a fixed mix of big-integer powers and
    tuple-keyed dictionary updates, the two kinds of work the workloads do.

    The host's speed drifts by up to 40% over tens of seconds as other
    tenants come and go.  The loop runs before and after every child process,
    and each child's times are scaled to what they would be when the loop
    takes REFERENCE_S.
    """
    start = perf_counter()
    counts: dict[tuple[int, int], int] = {}
    for p in range(1_000_003, 1_012_003, 2):
        key = (pow(2, p, REFERENCE_MODULUS) & 0xFFFF, p % 1009)
        counts[key] = counts.get(key, 0) + 1
    return perf_counter() - start


def end_to_end(name: str, seed: int, seconds: float, run: Run) -> None:
    goldens = load_goldens()
    invocations = WORKLOADS[name].invocations(seed)
    env = child_env()
    refs = [reference_loop()]  # refs[i] runs just before child i, refs[i + 1] just after
    children: list[tuple[int | None, float, float, float]] = []  # (round, wall, cpu, rss)

    def timed(cmd: list[str], round_no: int | None) -> tuple[int | None, str, str]:
        code, out, err, wall, cpu, rss = run_child(cmd, env)
        refs.append(reference_loop())
        children.append((round_no, wall, cpu, rss))
        return code, out, err

    # Fresh interpreters importing the CLI; this also warms bytecode and page caches.
    for _ in range(SETUP_RUNS):
        code, _, err = timed([sys.executable, "-c", "import mdl.cli"], None)
        run.attempted += 1
        if code != 0:
            run.failures.append(f"import mdl.cli: exit {code}: {err.strip()[-300:]}")

    start = perf_counter()
    round_walls: list[float] = []
    while True:
        for argv in invocations:
            cmd = [sys.executable, "-m", "mdl.cli", *argv, "--no-timestamp"]
            code, out, err = timed(cmd, len(round_walls))
            if code == 0:
                run.check(argv, out, goldens)
            else:
                run.attempted += 1
                run.failures.append(f"{' '.join(argv)}: exit {code}: {err.strip()[-300:]}")
        round_walls.append(sum(c[1] for c in children if c[0] == len(round_walls)))
        if perf_counter() - start + statistics.median(round_walls) > seconds:
            break

    rounds: dict[int, list[float]] = defaultdict(lambda: [0.0] * 5)
    for i, (round_no, wall, cpu, rss) in enumerate(children):
        scale = REFERENCE_S / ((refs[i] + refs[i + 1]) / 2)
        if round_no is None:
            run.add("setup_s", wall * scale, "s")
            run.add("raw.setup_s", wall, "s")
            continue
        totals = rounds[round_no]
        totals[0] += wall * scale
        totals[1] += cpu * scale
        totals[2] = max(totals[2], rss)
        totals[3] += wall
        totals[4] += cpu
    for wall, cpu, rss, raw_wall, raw_cpu in rounds.values():
        run.add("wall_s", wall, "s")
        run.add("cpu_s", cpu, "s")
        run.add("peak_rss_mb", rss, "MB")
        run.add("raw.wall_s", raw_wall, "s")
        run.add("raw.cpu_s", raw_cpu, "s")
    run.extra = {"reference_loops": refs, "children": children}


def _in_process_round(cli, invocations, goldens, run: Run, tracer: Tracer | None) -> float:
    start = perf_counter()
    for argv in invocations:
        cli_argv = [*argv, "--no-timestamp"]
        if tracer is None:
            text = cli.run(cli.parse_config(cli_argv))
        else:
            with tracer.span("cli.run") as record:
                text = cli.run(cli.parse_config(cli_argv))
                record["count"] = len(text.encode())
        run.check(argv, text, goldens)
    return perf_counter() - start


def _probe(probe: tuple, tracer: Tracer, run: Run) -> list:
    kind, *args = probe
    primes = importlib.import_module("mdl.primes")
    digits = importlib.import_module("mdl.digits")
    with tracer.span(kind) as record:
        if kind == "primes.sieve":
            out = list(primes.primes_up_to(primes.PrimeRange(args[0])))
        elif kind == "primes.mangoldt_terms":
            out = list(primes.mangoldt_terms(primes.PrimeRange(args[0])))
        else:
            out = digits.mersenne_residues(*args)
        record["count"] = len(out)
    expected = (PRIME_POWER_COUNT if kind == "primes.mangoldt_terms" else PRIME_COUNT)[args[-1]]
    run.attempted += 1
    if len(out) != expected:
        run.failures.append(f"probe {probe}: {len(out)} items, expected {expected}")
    return out


def traced(name: str, seed: int, seconds: float, run: Run, tracer: Tracer) -> None:
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("mdl.cli")
    goldens = load_goldens()
    workload = WORKLOADS[name]
    invocations = workload.invocations(seed)
    et_args = [dict(zip(a[1::2], a[2::2])) for a in invocations if a[0] == "discrepancy"]

    start = perf_counter()
    while True:
        tracer.round += 1
        cycle_start = perf_counter()
        first = len(tracer.spans)
        # alternate the order so neither round always runs on a warmer process
        if tracer.round % 2:
            untraced_s = _in_process_round(cli, invocations, goldens, run, None)
        with tracer.patched():
            traced_s = _in_process_round(cli, invocations, goldens, run, tracer)
        if not tracer.round % 2:
            untraced_s = _in_process_round(cli, invocations, goldens, run, None)
        round_spans = tracer.spans[first:]
        outputs = {p: _probe(p, tracer, run) for p in workload.probes}
        probe_spans = {s["name"]: s for s in tracer.spans[first + len(round_spans):]}
        _layer_metrics(run, round_spans, probe_spans, outputs, et_args)
        run.add("trace.overhead_s", traced_s - untraced_s, "s")

        if perf_counter() - start + (perf_counter() - cycle_start) > seconds:
            break


def _layer_metrics(run: Run, spans: list[dict], probes: dict, outputs: dict, et_args) -> None:
    def total(*names: str, field: str | None = None) -> float:
        return sum(s.get(field or "busy", 0) for s in spans if s["name"] in names)

    def probe_s(kind: str) -> float:
        return probes[kind]["busy"] if kind in probes else 0.0

    selfs = self_times(spans)
    by_layer: dict[str, float] = defaultdict(float)
    for span_name, seconds in selfs.items():
        by_layer[span_name.split(".")[0]] += seconds
    top = max(by_layer, key=by_layer.get)
    top_span = max(selfs, key=selfs.get)
    run.top = f"{top} (span {top_span}: {selfs[top_span]:.3f} s self time)"
    for layer, seconds in sorted(by_layer.items()):
        run.add(f"self.{layer}_s", seconds, "s")

    residues = next((v for p, v in outputs.items() if p[0] == "digits.residues"), [])
    distinct = len(set(residues))
    phase_terms = sum(int(a["--H"]) for a in et_args) * distinct

    values = {
        "primes.sieve_s": (probe_s("primes.sieve"), "s"),
        "primes.count": (probes.get("primes.sieve", {}).get("count", 0), "count"),
        "primes.mangoldt_terms_s": (probe_s("primes.mangoldt_terms"), "s"),
        "primes.mangoldt_terms.count": (probes.get("primes.mangoldt_terms", {}).get("count", 0), "count"),
        "digits.residues_s": (probe_s("digits.residues"), "s"),
        "digits.residues.count": (len(residues), "count"),
        "digits.residues.calls": (total("digits.residues", field="calls"), "count"),
        "digits.count_blocks_s": (total("digits.count_blocks"), "s"),
        "digits.discrepancy_s": (total("digits.discrepancy"), "s"),
        "digits.erdos_turan_s": (total("digits.erdos_turan"), "s"),
        "digits.erdos_turan.phase_terms": (phase_terms, "count"),
        "digits.erdos_turan.distinct_ratio": (distinct / len(residues) if et_args else 0.0, "ratio"),
        "expsum.mangoldt_s": (total("expsum.mangoldt"), "s"),
        "expsum.mangoldt.terms": (total("expsum.mangoldt", field="count"), "count"),
        "expsum.mersenne_s": (total("expsum.mersenne"), "s"),
        "expsum.mersenne.terms": (total("expsum.mersenne", field="count"), "count"),
        "vmvt.count_s": (total("vmvt.count"), "s"),
        "vmvt.left_tuples": (total("vmvt.count", field="left_tuples"), "count"),
        "vmvt.solutions": (total("vmvt.count", field="solutions"), "count"),
        "order.lemma_sweep_s": (total("order.structure", "order.congruence", "order.valuation"), "s"),
        "order.lemma_cases": (total("order.congruence", "order.valuation", field="calls"), "count"),
        "cli.run_s": (total("cli.run"), "s"),
        "cli.self_s": (selfs.get("cli.run", 0.0), "s"),
        "cli.report_bytes": (total("cli.run", field="count"), "bytes"),
        "layers.top_self_s": (by_layer[top], "s"),
        "trace.spans": (sum(s["calls"] for s in spans), "count"),
    }
    for metric, (value, unit) in values.items():
        run.add(metric, value, unit)


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload in one mode; print its metrics and return the summary."""
    OUT.mkdir(parents=True, exist_ok=True)
    host = host_info()
    run = Run()
    if trace:
        tracer = Tracer(name)
        traced(name, seed, seconds, run, tracer)
        tracer.write_jsonl(OUT / f"trace-{name}-seed{seed}.jsonl")
    else:
        end_to_end(name, seed, seconds, run)
    medians = run.medians()

    print(f"# workload {name} seed {seed} trace {int(trace)}: {WORKLOADS[name].why}")
    print(f"# host {json.dumps(host)}")
    for argv in WORKLOADS[name].invocations(seed):
        print(f"# invocation mdl {' '.join(argv)} --no-timestamp")
    for metric, m in medians.items():
        print(f"{metric:<36} {m['value']:>16.6f} {m['unit']:<6} median of n={m['n']}")
    if trace:
        print(f"# dominant layer by self time: {run.top}")
    ratio = len(run.failures) / run.attempted
    print(f"{'fail_ratio':<36} {ratio:>16.6f} {'ratio':<6} {len(run.failures)} of n={run.attempted}")
    for failure in run.failures:
        print(f"# FAILED {failure}")

    summary = {
        "workload": name, "seed": seed, "trace": int(trace), "host": host,
        "invocations": [list(a) for a in WORKLOADS[name].invocations(seed)],
        "attempted": run.attempted, "failures": run.failures,
        "metrics": medians, "samples": run.samples, **run.extra,
    }
    (OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(summary, indent=1) + "\n"
    )
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics; default both")
    args = parser.parse_args()

    if not (SRC / "mdl" / "cli.py").is_file():
        print(f"perfbench: no mdl sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = [False, True] if args.trace is None else [bool(args.trace)]

    results = {}
    attempted = failed = 0
    for name in names:
        for trace in modes:
            summary = measure(name, args.seed, args.seconds, trace)
            wanted = spec["per_layer" if trace else "end_to_end"]
            results.update({
                (f"{name}." if len(names) > 1 else "") + m["name"]:
                    {"value": summary["metrics"][m["name"]]["value"], "unit": m["unit"]}
                for m in wanted
            })
            attempted += summary["attempted"]
            failed += len(summary["failures"])
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": results}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
