#!/usr/bin/env python3
"""Seeded CLI-job benchmark for spannerlab.

Run from the root of a checkout:

    python3 perfbench/run.py --workload gnp-sparse --seed 0 --seconds 28 --trace 0

The benchmark generates the workload's instances from ``--seed``, writes each
in the CLI file format, and runs the workload's job (a fixed list of
``spanner span|verify|stats`` commands) in-process through
``spannerlab.cli.main``, one command after the other: a closed loop with one
client. Set-up writes the first instances and warms up on a small one, then
jobs repeat back to back for ``--seconds``, job j on instance j. A command
fails on a nonzero exit code or when its stdout or an output file differs from
the reference: the pinned digests of ``golden.json`` for instance 0 of the
default seed, and the first outputs for a repeated instance.

The host's speed changes by up to half within seconds on a shared machine, so
the end-to-end job metrics are relative: every command's time is divided by
the time of a fixed reference kernel (``ReferenceClock``) run just before and
just after it, and so is each set-up's time. The raw seconds go to the
context line.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json. ``--trace 1``
alternates untraced and traced jobs (see tracer.py) and prints the per-layer
metrics; two traced jobs must agree on every exact count and on every output
digest. ``--smoke`` runs the same thing at tiny sizes; ``--growth`` times the
workload's first span command at n and 2n (same expected degree) and prints
log2 of the ratios; ``--record-golden`` rewrites the pinned digests of the
workload for the default seed.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the run
context (interpreter, cores, load average, commit, sample counts).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import random
import resource
import shutil
import sys
import traceback
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "spannerlab" / "cli.py").is_file():
    sys.exit(f"perfbench: no spannerlab sources under {SRC}; run from the root of a checkout")
sys.path.insert(0, str(SRC))

from spannerlab import cli  # noqa: E402
from tracer import Stat, Tracer  # noqa: E402
from workloads import HOST, WORKLOADS, outputs  # noqa: E402

DEFAULT_SEED = 0
GOLDEN = Path(__file__).resolve().parent / "golden.json"
# setup_s is the median over SETUP_REPS set-ups (see measure). Each is
# measured in reference-kernel passes like the job metrics, and given in
# seconds at this fixed time per pass: about the kernel's time on a 2-vCPU
# Xeon (Sapphire Rapids) KVM guest with Python 3.11, at its fast speed level.
SETUP_REPS = 5
REF_SECONDS = 0.03
WARMUP = "warmup"
MIN_TRACED_JOBS = 2
# Untraced job j runs on instance j of the seed's stream. The cost of one
# instance varies by tens of percent between seeds (eft-exact most), so a
# median over many instances is what makes runs of different seeds agree.
STREAM = 100_000


def instance_seed(seed: int, j: int) -> int:
    return seed * STREAM + j


def staged(k: int) -> str:
    """File that set-up k writes the input of job k to."""
    return f"instance-{k}.txt"


class ReferenceClock:
    """A fixed pure-Python kernel that measures the host's current speed.

    The host's speed steps between levels about 1.5x apart, often within a
    few seconds, so a run's median wall time depends on how much of the run
    fell in slow periods. Breadth-first searches over a fixed random graph
    exercise what spannerlab's kernels exercise (dict and deque operations
    on adjacency lists) and slow down with them. The graph does
    not depend on the seed or on spannerlab, so a program change does not
    move the clock.
    """

    NODES, EDGES, SOURCES = 2000, 12_000, 16

    def __init__(self):
        rng = random.Random(20090101)
        adj: list[list[int]] = [[] for _ in range(self.NODES)]
        for _ in range(self.EDGES):
            u, v = rng.randrange(self.NODES), rng.randrange(self.NODES)
            if u != v:
                adj[u].append(v)
                adj[v].append(u)
        self.adj = [tuple(a) for a in adj]

    def _searches(self) -> None:
        adj = self.adj
        for s in range(self.SOURCES):
            dist = {s: 0}
            queue = deque([s])
            while queue:
                u = queue.popleft()
                du = dist[u] + 1
                for v in adj[u]:
                    if v not in dist:
                        dist[v] = du
                        queue.append(v)

    def measure(self) -> float:
        """Seconds one pass of the kernel takes now."""
        gc.collect()
        start = perf_counter()
        self._searches()
        return perf_counter() - start

    def start(self) -> None:
        self.last = self.measure()

    def ratio(self, elapsed: float) -> float:
        """``elapsed`` seconds over the mean of the kernel's time at the
        previous call (or ``start``) and now."""
        after = self.measure()
        rel = elapsed / ((self.last + after) / 2)
        self.last = after
        return rel


@dataclass
class JobResult:
    span_s: float = 0.0
    verify_s: float = 0.0
    # The same, each command divided by the reference time around it.
    span_ref: float = 0.0
    verify_ref: float = 0.0
    failed: int = 0
    digests: list[dict[str, str]] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        """The job's time: its commands back to back, without the benchmark's
        bookkeeping between them."""
        return self.span_s + self.verify_s

    @property
    def job_ref(self) -> float:
        return self.span_ref + self.verify_ref


def run_command(argv: tuple[str, ...]) -> tuple[float, int | None, str]:
    """One CLI invocation; returns (seconds, exit code or None, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    # A user's command starts in a fresh process; starting from a collected
    # heap keeps one command from paying for the garbage of the one before.
    gc.collect()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except SystemExit as exc:
        rc = exc.code
    except Exception:
        rc = None
        traceback.print_exc()
    elapsed = perf_counter() - start
    if rc != 0:
        print(f"perfbench: {' '.join(argv)} -> exit {rc}: {err.getvalue().strip()}", file=sys.stderr)
    return elapsed, rc, out.getvalue()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_job(job, reference: list[dict[str, str]] | None, clock: ReferenceClock | None = None) -> JobResult:
    """Run a job's commands in order and check their outputs against
    ``reference``. With a ``clock``, the reference kernel runs before the
    first command and after each one, and every command's time is also
    divided by the mean of the two reference times around it."""
    res = JobResult()
    codes, stdouts = [], []
    if clock:
        clock.start()
    for argv in job:
        elapsed, rc, stdout = run_command(argv)
        rel = clock.ratio(elapsed) if clock else 0.0
        if argv[0] == "span":
            res.span_s += elapsed
            res.span_ref += rel
        else:
            res.verify_s += elapsed
            res.verify_ref += rel
        codes.append(rc)
        stdouts.append(stdout)
    # Every output file of a job has its own name, so hashing after the job
    # sees what each command wrote.
    for i, argv in enumerate(job):
        digest = {"stdout": sha256(stdouts[i].encode())}
        for name in outputs(argv):
            digest[name] = sha256(Path(name).read_bytes()) if os.path.exists(name) else "missing"
        res.digests.append(digest)
        if codes[i] != 0 or (reference is not None and digest != reference[i]):
            if codes[i] == 0:
                print(f"perfbench: {' '.join(argv)} -> output digest mismatch", file=sys.stderr)
            res.failed += 1
    return res


def write_instance(wl, seed: int, n: int, p: float, path: str = HOST) -> None:
    Path(path).write_text(cli.format_graph(wl.instance(seed, n, p)), encoding="utf-8")


@contextlib.contextmanager
def workdir(name: str):
    path = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    old = os.getcwd()
    os.chdir(path)
    try:
        yield path
    finally:
        os.chdir(old)
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            path.parent.rmdir()


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        ref_file = ROOT / ".git" / name
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Layers:
    """Per-layer metric values from the traced jobs of one run.

    Names are ``<caller module>.<callee>.<stat>``. Exact stats (calls,
    settled) are equal across traced jobs; times are medians over them.
    """

    def __init__(self, job_tracers: list[Tracer], setup_tracer: Tracer, overhead: float):
        self.job_tracers = job_tracers
        self.setup_tracer = setup_tracer
        self.overhead = overhead

    def _stats(self, key: str) -> list[Stat]:
        tracers = [self.setup_tracer] if key.startswith("generators.") else self.job_tracers
        return [t.stats.get(key, Stat()) for t in tracers]

    def _sum(self, stat: str, prefix: str) -> int:
        return sum(getattr(s, stat) for k, s in self.job_tracers[0].stats.items() if k.startswith(prefix))

    def value(self, name: str) -> float:
        if name == "trace_overhead_ratio":
            return self.overhead
        if name == "greedy.pairs_scanned":
            return self.value("greedy.pairs_at_distance.settled")
        if name == "greedy.add_ratio":
            return ratio(self.value("greedy.lex_shortest_path.calls"), self.value("greedy.pairs_scanned"))
        if name in ("verify.pairs_checked", "verify.fault_sets_checked"):
            # Counted once, on the report the CLI receives.
            return self._sum(name.split(".", 1)[1], "cli.")
        key, stat = name.rsplit(".", 1)
        if stat in ("true_ratio", "hit_ratio"):
            return ratio(self.value(f"{key}.hits"), self.value(f"{key}.calls"))
        values = [getattr(s, stat) for s in self._stats(key)]
        return median(values) if stat.endswith("_s") else values[0]


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.is_file() else {}


def measure(args, wl, ctx, names: list[str]) -> tuple[dict[str, float], int, int]:
    """Set up, then run the job loop; returns (metrics, attempted, failed)."""
    n, p = wl.sizes[args.profile]
    pins = {} if args.record_golden else load_golden()
    # Digests that a job on instance i must reproduce: the pinned ones, else
    # those of the first job on it.
    references: dict[int, list[dict[str, str]]] = {}
    if args.seed == DEFAULT_SEED and wl.name in pins.get(args.profile, {}):
        references[0] = pins[args.profile][wl.name]
    warm_reference = pins.get("smoke", {}).get(wl.name)
    setups: list[float] = []  # seconds
    setups_ref: list[float] = []
    jobs: list[JobResult] = []
    traced: list[tuple[Tracer, JobResult]] = []
    failed = 0

    # Set-up k generates and writes the input of job k, then warms the
    # program up (the first job of a process is the slowest) in a directory
    # of its own. The warm-up job runs on the pinned smoke-size instance
    # whatever the seed: instances differ in cost by tens of percent, and a
    # seeded warm-up would bring that into setup_s. Its outputs must match
    # the pinned digests.
    Path(WARMUP).mkdir()
    clock = ReferenceClock()
    clock.start()
    for k in range(SETUP_REPS):
        start = perf_counter()
        write_instance(wl, instance_seed(args.seed, k), n, p, staged(k))
        with contextlib.chdir(WARMUP):
            write_instance(wl, instance_seed(DEFAULT_SEED, 0), *wl.sizes["smoke"])
            warm = run_job(wl.job, warm_reference)
        setups.append(perf_counter() - start)
        setups_ref.append(clock.ratio(setups[-1]))
        failed += warm.failed
        warm_reference = warm_reference or warm.digests

    setup_tracer = Tracer()
    if args.trace:
        with setup_tracer.installed():
            wl.instance(instance_seed(args.seed, 0), n, p)

    # Untraced jobs walk the stream from instance 0. The traced run stays on
    # instance 0, so traced and untraced jobs, and the traced jobs among
    # themselves, must agree output for output.
    current = None
    start = perf_counter()
    while not jobs or perf_counter() - start < args.seconds or (args.trace and len(traced) < MIN_TRACED_JOBS):
        i = 0 if args.trace else len(jobs)
        if i != current:
            if os.path.exists(staged(i)):
                os.replace(staged(i), HOST)
            else:
                write_instance(wl, instance_seed(args.seed, i), n, p)
            current = i
        job = run_job(wl.job, references.get(i), None if args.trace else clock)
        references.setdefault(i, job.digests)
        jobs.append(job)
        if args.trace:
            tracer = Tracer()
            with tracer.installed():
                traced.append((tracer, run_job(wl.job, references[0])))
    if args.record_golden:
        pins = load_golden()
        pins.setdefault(args.profile, {})[wl.name] = jobs[0].digests
        GOLDEN.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    failed += sum(j.failed for j in jobs) + sum(j.failed for _, j in traced)
    attempted = len(wl.job) * (SETUP_REPS + len(jobs) + len(traced))

    ctx["jobs"] = len(jobs)
    ctx["job_s_samples"] = [j.wall_s for j in jobs]
    ctx["setup_s_samples"] = setups
    if not args.trace:
        for name in ("job_s", "span_s", "verify_s"):
            attr = "wall_s" if name == "job_s" else name
            ctx[name] = {"value": median([getattr(j, attr) for j in jobs]), "unit": "s"}
        ctx["job_ref_samples"] = [j.job_ref for j in jobs]
        return (
            {
                "job_ref": median([j.job_ref for j in jobs]),
                "span_ref": median([j.span_ref for j in jobs]),
                "verify_ref": median([j.verify_ref for j in jobs]),
                "setup_s": median(setups_ref) * REF_SECONDS,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            },
            attempted,
            failed,
        )

    # Traced-run honesty: tracing must not change what the program computes
    # or how much work it does.
    first = traced[0][0].counts()
    for tracer, _ in traced[1:]:
        if tracer.counts() != first:
            print("perfbench: traced jobs disagree on exact counts", file=sys.stderr)
            failed += 1
    ctx["traced_jobs"] = len(traced)
    overhead = ratio(median([j.wall_s for _, j in traced]), median([j.wall_s for j in jobs]))
    layers = Layers([t for t, _ in traced], setup_tracer, overhead)
    return {name: layers.value(name) for name in names}, attempted, failed


def growth(args, wl) -> tuple[dict[str, float], int, int]:
    """First span command of the job at n and 2n, same expected degree;
    returns (log2 ratios, attempted, failed)."""
    n, p = wl.sizes[args.profile]
    argv = next(a for a in wl.job if a[0] == "span")
    span_times, counts, codes = [], [], []
    for ns in (n, 2 * n):
        write_instance(wl, instance_seed(args.seed, 0), ns, p * (n - 1) / (ns - 1))
        codes.append(run_command(argv)[1])  # warm-up
        elapsed, rc, _ = run_command(argv)
        tracer = Tracer()
        with tracer.installed():
            codes += [rc, run_command(argv)[1]]
        span_times.append(elapsed)
        counts.append(tracer.stats)
    metrics = {"span_s.log2_ratio": math.log2(span_times[1] / span_times[0])}
    for key in wl.growth_kernels:
        a, b = (c.get(key, Stat()).calls for c in counts)
        metrics[f"{key}.calls.log2_ratio"] = math.log2(b / a) if a and b else 0.0
    return metrics, len(codes), sum(rc != 0 for rc in codes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny instances, for the smoke test")
    parser.add_argument("--growth", action="store_true", help="growth exponents of the span command")
    parser.add_argument("--record-golden", action="store_true", help="re-pin output digests (default seed)")
    args = parser.parse_args(argv)
    args.profile = "smoke" if args.smoke else "full"
    if args.record_golden and args.seed != DEFAULT_SEED:
        parser.error(f"--record-golden pins the default seed {DEFAULT_SEED}")
    wl = WORKLOADS[args.workload]
    if args.growth and not wl.growth_kernels:
        parser.error(f"--growth is defined for {[w for w in WORKLOADS if WORKLOADS[w].growth_kernels]}")

    ctx = {
        "workload": wl.name,
        "seed": args.seed,
        "profile": args.profile,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m_start": os.getloadavg()[0],
        "commit": git_commit(),
    }
    with workdir(wl.name):
        if args.growth:
            metrics, attempted, failed = growth(args, wl)
            units = {name: "log2" for name in metrics}
        else:
            group = load_spec()["per_layer" if args.trace else "end_to_end"]
            units = {m["name"]: m["unit"] for m in group}
            metrics, attempted, failed = measure(args, wl, ctx, list(units))
    ctx["loadavg_1m_end"] = os.getloadavg()[0]
    ctx["failed_ops"] = {"value": failed / attempted, "unit": "ratio"}
    print(json.dumps({"context": ctx}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
