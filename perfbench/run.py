"""Benchmark of the sklift command line.

    python3 perfbench/run.py --workload lift-hecke --seed 1 --seconds 40 --trace 0

Runs the workload's sklift commands in fresh processes, one at a time, in
rounds until ``--seconds`` are spent, and prints as its last line one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json, with
``--trace 1`` the per-layer ones.  Each command invocation is one operation;
it fails when it exits non-zero or when its output fails a check in
``checks.py``.  See README.md for the phases, the workloads and the noise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import checks
import traced

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

WORKLOADS = {
    "lift-hecke": (("lift", "--weight", "18", "--bound", "14"),),
    "fj-eisenstein": (("fj", "--weight", "12", "--S", "1", "--bound", "40"),),
    "algebra": (("eigenform", "--weight", "26", "--prec", "3600"), ("lfactor", "--group", "E73")),
}
THREADED = ("lift", "fj")  # the commands that accept --threads (and write under a prefix)
# What the installed sklift script runs, plus one line at exit with the peak resident set
# of the process's own address space.  (ru_maxrss from wait4 is no use here: it keeps the
# high-water mark of the benchmark process the child was spawned from.)
ENTRY = (
    "import sys\n"
    "from sklift.cli import main\n"
    "rc = main()\n"
    "sys.stderr.write(next(ln for ln in open('/proc/self/status') if ln.startswith('VmHWM:')))\n"
    "sys.exit(rc)\n"
)
OP_TIMEOUT_S = 150


class Bench:
    def __init__(self, workload: str, seed: int, work: Path):
        self.commands = WORKLOADS[workload]
        self.seed = seed
        self.rng = random.Random(seed)
        self.cores = len(os.sched_getaffinity(0))
        self.work = work
        self.env = {k: v for k, v in os.environ.items() if k not in ("SKLIFT_CACHE_DIR", "PYTHONPATH")}
        self.env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict[str, tuple[str, bool]] = {}  # command -> (output digest, checks passed)
        self.output_bytes: dict[str, int] = {}
        self.e73_checked = False

    # -- processes -------------------------------------------------------------

    def spawn(self, prog: list[str], stdout, env=None, cwd=None):
        """Run ``prog`` to its end; return (wall s, exit code, rusage of its process tree, stderr)."""
        err_path = self.work / "stderr.txt"
        t0 = perf_counter()
        with open(err_path, "wb") as err:
            proc = subprocess.Popen(prog, stdout=stdout, stderr=err, env=env or self.env, cwd=cwd or self.work)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: stop the child and reap it before leaving
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage, err_path.read_text(errors="replace")

    def setup_probe(self) -> float:
        wall, rc, _, stderr = self.spawn([sys.executable, "-c", "import sklift.cli"], subprocess.DEVNULL)
        if rc:
            self.problems.append(f"import sklift.cli exited {rc}: {stderr[-300:]}")
        return wall

    def invoke(self, cmd: tuple, outdir: Path, threads: int, cache: Path | None = None, trace: list | None = None):
        """One operation: run ``cmd`` in ``outdir`` and check what it wrote there."""
        outdir.mkdir(parents=True)
        name = cmd[0]
        argv = [*cmd, "--out", "out" if name in THREADED else "out.txt"]
        if name in THREADED:
            argv += ["--threads", str(threads)]
        env = dict(self.env, SKLIFT_CACHE_DIR=str(cache)) if cache else self.env
        if trace:
            prog = [sys.executable, str(HERE / "traced.py"), *trace, *argv]
        else:
            prog = [sys.executable, "-c", ENTRY, *argv]
        with open(outdir / "stdout.txt", "wb") as out:
            wall, rc, usage, stderr = self.spawn(prog, out, env, outdir)
        self.attempted += 1
        if rc:
            self.problems.append(f"sklift {' '.join(argv)} exited {rc}: {stderr[-300:]}")
        ok = rc == 0 and self.verify(name, outdir)
        self.failed += not ok
        shutil.rmtree(outdir)
        hwm = [int(ln.split()[1]) for ln in stderr.splitlines() if ln.startswith("VmHWM:")]
        return {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime, "rss_mb": hwm[-1] / 1024 if hwm else 0.0}

    def verify(self, name: str, outdir: Path) -> bool:
        """Check the first output of each command; every later one must be byte-identical to it."""
        files = {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}
        digest = hashlib.sha256(repr(sorted(files.items())).encode()).hexdigest()
        self.output_bytes[name] = sum(map(len, files.values()))
        if name not in self.reference:
            bad = checks.check_output(name, {k: v.decode() for k, v in files.items()})
            self.problems += [f"{name}: {b}" for b in bad[:5]]
            self.reference[name] = (digest, not bad)
        ref_digest, ref_ok = self.reference[name]
        if digest != ref_digest:
            self.problems.append(f"{name}: output differs from its first output in this run")
        return ref_ok and digest == ref_digest

    # -- phases ----------------------------------------------------------------

    def phase(self, label: str, threads: int, cache: Path | None = None, trace_seed: str | None = None):
        """Each command of the workload once; traced by ``traced.py`` when ``trace_seed`` is given."""
        return [
            self.invoke(
                cmd,
                self.work / label / str(i),
                threads,
                cache,
                [str(self.work / f"spans-{i}.json"), trace_seed] if trace_seed else None,
            )
            for i, cmd in enumerate(self.commands)
        ]

    def disk_phases(self, rec: dict, warm: bool) -> None:
        cache = self.work / "cache"
        fill = self.phase("fill", 1, cache)
        rec["disk_fill_s"] = sum(s["wall"] for s in fill)
        path = cache / "local-polys-v1.txt"
        rec["lift.disk_entries"] = (
            sum(1 for ln in path.read_text().splitlines() if ln and not ln.startswith("#")) if path.exists() else 0
        )
        if warm:
            rec["disk_warm_s"] = sum(s["wall"] for s in self.phase("warm", 1, cache))
        shutil.rmtree(cache, ignore_errors=True)

    def cold(self, rec: dict) -> None:
        samples = self.phase("cold", 1)
        rec["cold_s"] = sum(s["wall"] for s in samples)
        rec["peak_rss_mb"] = max(s["rss_mb"] for s in samples)

    def pool(self, rec: dict) -> None:
        samples = self.phase("pool", self.cores)
        rec["pool_s"] = sum(s["wall"] for s in samples)
        rec["lift.pool_cpu_s"] = sum(s["cpu"] for s in samples)

    def traced_run(self, rec: dict) -> None:
        # only the first traced round checks the E7,3 Euler factor at the seeded point
        samples = self.phase("traced", 1, trace_seed="-" if self.e73_checked else str(self.seed))
        self.e73_checked = True
        rec["traced_s"] = sum(s["wall"] for s in samples)
        for i in range(len(self.commands)):
            path = self.work / f"spans-{i}.json"
            if not path.exists():  # the command died first; its failure is counted already
                self.problems.append(f"{self.commands[i][0]}: traced run wrote no spans; its layers read 0")
                continue
            data = json.loads(path.read_text())
            path.unlink()
            if data["e73_point_ok"] is False:
                self.problems.append("E73 Euler factor differs from the direct product at the seeded point")
            rec["traced_s"] -= data["post_s"]
            for key, value in traced.summarize(data).items():
                rec[key] = rec.get(key, 0) + value

    def round(self, trace: bool) -> dict:
        """One round: every phase once, in an order drawn from the seed."""
        rec: dict = {}
        if trace:
            units = [self.cold, self.traced_run, self.pool, lambda r: self.disk_phases(r, warm=False)]
        else:
            units = [self.cold, self.pool, lambda r: self.disk_phases(r, warm=True)]
        self.rng.shuffle(units)
        setup = [self.setup_probe()] if not trace else []
        for unit in units:
            unit(rec)
            if not trace:
                setup.append(self.setup_probe())
        rec["setup"] = setup
        if trace:
            rec["trace.overhead_s"] = rec.pop("traced_s") - rec["cold_s"]
            rec["cli.output_kb"] = sum(self.output_bytes.values()) / 1024
        return rec


def end_to_end(rounds: list[dict]) -> dict[str, float]:
    """Median over rounds; setup_s is the median of every probe of the run."""
    out = {"setup_s": statistics.median(t for r in rounds for t in r["setup"])}
    for key in ("cold_s", "pool_s", "disk_fill_s", "disk_warm_s", "peak_rss_mb"):
        out[key] = statistics.median(r[key] for r in rounds)
    return out


def per_layer(rounds: list[dict], spec: list[dict], problems: list[str]) -> dict[str, float]:
    """Times are medians over rounds; every other metric must repeat exactly in every round."""
    out = {}
    for metric in spec:
        name = metric["name"]
        if name == "lift.coeff_use":
            values = [
                r.get("lift.distinct_reads", 0) / r["lift.coeff_count"] if r.get("lift.coeff_count") else 0.0
                for r in rounds
            ]
        else:
            values = [r.get(name, 0) for r in rounds]  # a round whose traced command died has no layers
        if metric["unit"] != "s" and len(set(values)) != 1:
            problems.append(f"{name} differs between rounds: {values}")
        out[name] = statistics.median(values)
    return out


def revision() -> str | None:
    """The git revision of the checkout; None outside a git checkout."""
    if not (ROOT / ".git").exists():
        return None
    res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return res.stdout.strip() if res.returncode == 0 else None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))  # so that the cleanup below runs
    if not (SRC / "sklift" / "cli.py").is_file():
        print(f"perfbench: no sklift sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]

    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(args.workload, args.seed, work)
    try:
        for cmd in bench.commands:
            checks.prepare(cmd[0])
        bench.setup_probe()  # compiles the bytecode and warms the file cache; not measured
        # whole rounds only, and no round that would end past --seconds (after the first)
        start = perf_counter()
        rounds, longest = [], 0.0
        while True:
            t0 = perf_counter()
            rounds.append(bench.round(bool(args.trace)))
            longest = max(longest, perf_counter() - t0)
            if perf_counter() - start + longest > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = bench.problems
    values = per_layer(rounds, spec, problems) if args.trace else end_to_end(rounds)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "revision": revision(),
        "cores": bench.cores,
        "rounds": len(rounds),
        "measured_s": round(perf_counter() - start, 3),
        "problems": problems,
        "samples": rounds,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(info, indent=1))
    info.pop("samples")
    print("perfbench " + json.dumps(info))
    result = {
        "correct": not problems and bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
