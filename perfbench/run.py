"""Layered, correctness-gated benchmark for cuberec.

    python3 perfbench/run.py --workload evaluate --seed 1 --seconds 40 --trace 0

Runs the workload's fixed job list as a closed loop: one client, one job at a
time, each in a fresh process forked from a worker (``worker.py``).  The
first pass always runs to the end; further passes repeat the jobs not marked
``once`` until ``--seconds`` of wall time have gone by.  Every sample's output
is checked outside the timed region, and a job that fails the check, raises
or runs over its budget counts as failed.  Times are scaled by a speed probe
to a reference machine (see ``speed`` and README.md).

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics.  With ``--trace 1`` the run makes one untraced and one
traced pass and reports the per-layer metrics of ``tracing.py`` instead.
Exit status: 0 when every job passed, 1 when one failed, 2 on a setup error.
See README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time

import oracle
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")
WORKER = os.path.join(HERE, "worker.py")

JOB_BUDGET_S = 60.0  # a job still running after this is killed and failed
DEADLINE_S = 165.0  # no job runs past this point of the run

# The speed probe: the benchmark's own cube recurrence on standard(16), which
# took 2.7-9.8 ms, 4.9 ms at the median, on the shared 2-core Xeon VM this
# benchmark was written on.  Times are reported as they would read on a
# machine where it takes PROBE_REF_S.
PROBE_POINTS = workloads.standard(16)
PROBE_REF_S = 0.004

END_TO_END = [
    ("jobs_per_s", "1/s"),
    ("job_s_p50", "s"),
    ("job_s_tail", "s"),
    ("cpu_s_per_job", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]

# Layer-map predictions checked on every traced run: a wrapper patched into
# the wrong namespace reads zero and fails here instead of passing silently.
COVERAGE = {
    "evaluate": [("laurent.div_exact.calls", ">", 0)],
    "enumerate": [("laurent.div_exact.calls", "==", 0), ("laurent.mul.calls", "==", 0),
                  ("lattice.contains_rhombus.calls", ">", 0)],
    "verify": [],
}


class SetupError(Exception):
    pass


def fingerprint_key(job: dict) -> str | None:
    """Key of the stored polynomial fingerprint a fixed job must match."""
    if job["kind"] == "gr_symbolic":
        return "gr:%d,%d,%d:%d" % (*job["gr"], job["l"])
    if job["kind"] in ("symbolic", "substitution") and job["name"] != "random":
        return f"{job['name']}|{job['mode']}"
    return None


def prepare(workload: str, seed: int, out_dir: str, record: bool = False) -> list:
    """Generate the job list, attach fingerprints, write it and its IC files."""
    jobs = workloads.make_jobs(workload, seed)
    stored = {}
    if os.path.exists(FINGERPRINTS):
        with open(FINGERPRINTS) as fh:
            stored = json.load(fh)
    os.makedirs(out_dir, exist_ok=True)
    for job in jobs:
        key = fingerprint_key(job)
        if key is not None and not record:
            if key not in stored:
                raise SetupError(f"no stored fingerprint for {key}; run --record-fingerprints")
            job["fingerprint"] = stored[key]
        if job["kind"] == "verify" and "u_fin" in job:
            job["ic_file"] = os.path.join(out_dir, f"ic-{job['id']}.json")
            with open(job["ic_file"], "w") as fh:
                json.dump({"explicit": {"u_fin": job["u_fin"]}}, fh)
    with open(os.path.join(out_dir, "jobs.json"), "w") as fh:
        json.dump(jobs, fh)
    return jobs


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"  # same set iteration order in every worker
    return env


class Worker:
    """A fork server (``worker.py``) that runs each job in a fresh child.

    ``setup_s`` is the time from spawning the server to its "ready" line:
    interpreter start and ``import cuberec.cli``, which every CLI call pays.
    """

    def __init__(self, err_path: str):
        spawn_at = time.monotonic()
        with open(err_path, "ab") as err:
            self.proc = subprocess.Popen(
                [sys.executable, WORKER, ROOT], stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, stderr=err, cwd=ROOT, env=worker_env(),
                start_new_session=True,
            )
        self.buf = b""
        try:
            ready = self._read(spawn_at + JOB_BUDGET_S)
        except (TimeoutError, EOFError, ValueError):
            self.close()
            raise SetupError(f"worker did not start; see {err_path}") from None
        self.setup_s = ready["ready_at"] - spawn_at

    def _read(self, deadline: float) -> dict:
        fd = self.proc.stdout.fileno()
        while b"\n" not in self.buf:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise TimeoutError
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                raise EOFError
            self.buf += chunk
        line, _, self.buf = self.buf.partition(b"\n")
        return json.loads(line)

    def run(self, job: dict, trace: bool, spans_dir: str, budget: float) -> dict:
        """One job in a fresh child; a crash or overrun is a failed sample.

        After an overrun the server and its child are killed and ``alive`` is
        false, so the caller starts a new server.
        """
        if budget <= 0:
            return {"ok": False, "error": "run deadline passed before the job started"}
        request = {"job": job, "trace": trace, "spans_dir": spans_dir}
        sent_at = time.monotonic()
        try:
            self.proc.stdin.write((json.dumps(request) + "\n").encode())
            self.proc.stdin.flush()
            result = self._read(sent_at + budget)
            if "exit" in result:
                return {"ok": False, "error": f"worker exit {result['exit']} without a result"}
            status = self._read(sent_at + budget)["exit"]
        except TimeoutError:
            self.close(kill=True)
            return {"ok": False, "error": f"over the {budget:.0f} s budget",
                    "job_s": budget, "done_s": budget}
        except (EOFError, OSError, ValueError) as exc:
            self.close()
            return {"ok": False, "error": f"worker lost: {exc!r}"}
        if status != 0:
            return {"ok": False, "error": f"worker exit {status}"}
        if "done_at" in result:
            result["done_s"] = result.pop("done_at") - sent_at
        return result

    @property
    def alive(self) -> bool:
        return self.proc.returncode is None

    def close(self, kill: bool = False) -> None:
        """End the server and wait for it: EOF on stdin, or kill its process
        group, child included, when ``kill`` is set or it does not exit."""
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=0 if kill else 5)
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
        self.proc.stdout.close()


def speed() -> float:
    """How fast this machine runs now: PROBE_REF_S / the probe's time.

    The probe runs no ``cuberec`` code, so no change to the program moves it.
    """
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        oracle.cube_values(PROBE_POINTS)
        times.append(time.perf_counter() - t0)
    return PROBE_REF_S / statistics.median(times)


def run_passes(jobs, seconds, trace, out_dir, started) -> tuple[dict, list]:
    """Samples per job id, and the set-up time of each worker started.

    The first pass runs every job.  Later passes skip the jobs marked
    ``once`` and go on until ``seconds`` have elapsed.  Each pass starts a new
    worker, so a run sets up several times.

    Every sample and set-up gets a ``speed`` to scale its times by.  On a
    shared VM the machine's speed drifts by up to 1.5x over minutes and flips
    between a fast and a slow phase every few seconds.  A short job is in one
    phase, so it gets the mean of the probes just before and just after it.
    A long job spans several phases, which two probes catch badly, so a
    ``once`` job gets the mean speed of the ten short samples around it.
    """
    samples = {job["id"]: [] for job in jobs}
    order = []  # (job, sample) in the order they ran
    setups = []
    spans_dir = os.path.join(out_dir, "spans")
    err_path = os.path.join(out_dir, "worker.err")
    loop_start = time.monotonic()
    todo = jobs
    while todo:
        worker = None
        try:
            for job in todo:
                now = time.monotonic()
                if todo is not jobs and now - loop_start >= seconds:
                    break
                if worker is None or not worker.alive:
                    worker = Worker(err_path)
                    last = speed()
                    setups.append({"setup_s": worker.setup_s, "speed": last})
                budget = min(JOB_BUDGET_S, DEADLINE_S - (now - started))
                result = worker.run(job, trace, spans_dir, budget)
                probe = speed()
                result["speed"], last = (last + probe) / 2, probe
                if not result["ok"]:
                    print(f"FAILED {job['id']} {job['kind']} {job.get('name', '')}: "
                          f"{result['error']}", file=sys.stderr)
                samples[job["id"]].append(result)
                order.append((job, result))
        finally:
            if worker is not None:
                worker.close()
        if time.monotonic() - loop_start >= seconds:
            break
        todo = [job for job in jobs if not job.get("once")]

    for i, (job, result) in enumerate(order):
        near = [r["speed"] for j, r in order[max(0, i - 5):i + 6] if not j.get("once")]
        if job.get("once") and near:
            result["speed"] = statistics.fmean(near)
    return samples, setups


def _scaled(record, key, scaled):
    return record[key] * record["speed"] if scaled else record[key]


def _per_job(samples, key, scaled=True):
    """Per-job median of ``key`` over that job's samples that have it.

    A short job's samples, spread over the run, fall in fast and slow phases
    of the machine, and their median moves less from run to run than their
    minimum does.  With ``scaled`` each sample is first scaled by its speed.
    """
    out = []
    for results in samples.values():
        values = [_scaled(r, key, scaled) for r in results if key in r]
        if values:
            out.append(statistics.median(values))
    return out


def jobs_per_s(samples, scaled=True) -> float:
    """Jobs in the mix / wall seconds of one pass, each job at its median sample."""
    return len(samples) / (sum(_per_job(samples, "done_s", scaled)) or float("inf"))


def end_to_end(samples, setups, scaled=True) -> tuple[dict, dict]:
    """The end-to-end metrics and how the tail was taken."""
    n = len(samples)
    job_s = sorted(_per_job(samples, "job_s", scaled)) or [0.0]
    rank = max(1, len(job_s) - 10)  # the highest rank with at least 10 jobs beyond it
    every = [r for results in samples.values() for r in results]
    values = {
        "jobs_per_s": jobs_per_s(samples, scaled),
        "job_s_p50": statistics.median(job_s),
        "job_s_tail": job_s[rank - 1],
        "cpu_s_per_job": statistics.fmean(_per_job(samples, "cpu_s", scaled) or [0.0]),
        "peak_rss_mb": max([r["rss_mb"] for r in every if "rss_mb" in r] or [0.0]),
        "setup_s": statistics.median(_scaled(r, "setup_s", scaled) for r in setups),
    }
    return values, {"jobs": n, "tail_percentile": round(100 * rank / n, 1)}


def layer_metrics(samples, untraced) -> dict:
    totals = {}
    for results in samples.values():
        for r in results:
            for key, value in r.get("layers", {}).items():
                totals[key] = totals.get(key, 0) + value
    traced_rate, plain_rate = jobs_per_s(samples), jobs_per_s(untraced)
    totals["trace.jobs_per_s"] = traced_rate
    totals["trace.untraced_jobs_per_s"] = plain_rate
    totals["trace.overhead"] = plain_rate / traced_rate if traced_rate else 0.0
    return {name: totals.get(name, 0) for name, _ in tracing.METRICS}


def coverage_errors(workload, layers) -> list:
    errors = []
    for name, op, bound in COVERAGE[workload]:
        value = layers[name]
        if not (value > bound if op == ">" else value == bound):
            errors.append(f"{name} = {value}, expected {op} {bound}")
    return errors


def machine_info() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model, "python": platform.python_version()}


def warm_up() -> None:
    """Import cuberec once, so bytecode is compiled before anything is timed."""
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); import cuberec.cli"],
        cwd=ROOT, env=worker_env(), capture_output=True, timeout=120,
    )
    if proc.returncode != 0:
        raise SetupError(f"cannot import cuberec from {ROOT}/src: {proc.stderr.decode()[-300:]}")


def record_fingerprints() -> int:
    """Store the fingerprint of every fixed evaluate polynomial, cross-checked once.

    Each cube polynomial is computed by f_symbolic and f_via_substitution and
    stored only when the two agree and the job's own check passes.
    """
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import worker
    from cuberec import recurrence

    stored = {}
    out_dir = os.path.join(ROOT, ".perfbench_out", "record")
    for job in prepare("evaluate", 0, out_dir, record=True):
        key = fingerprint_key(job)
        if key is None or key in stored:
            continue
        task = worker.Job(job)
        poly = task.run()
        error = task.check(poly)
        if error is None and job["kind"] in ("symbolic", "substitution"):
            other = (recurrence.f_via_substitution if job["kind"] == "symbolic"
                     else recurrence.f_symbolic)(task.ic, job["mode"])
            if other != poly:
                error = "f_symbolic and f_via_substitution disagree"
        if error is not None:
            print(f"{key}: {error}", file=sys.stderr)
            return 1
        stored[key] = worker.fingerprint(poly)
        print(f"{key} {stored[key]}")
    with open(FINGERPRINTS, "w") as fh:
        json.dump(stored, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--replay", metavar="JOBS_JSON",
                        help="rerun a job list written by an earlier run")
    parser.add_argument("--record-fingerprints", action="store_true",
                        help="recompute and store fingerprints of the fixed polynomials")
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "cuberec", "__init__.py")):
            raise SetupError(f"no cuberec sources under {ROOT}/src")
        warm_up()
        if args.record_fingerprints:
            return record_fingerprints()
        if args.workload is None:
            raise SetupError("--workload is required")
        tag = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")
        out_dir = os.path.join(ROOT, ".perfbench_out", tag)
        if args.replay:
            with open(args.replay) as fh:
                jobs = json.load(fh)
        else:
            jobs = prepare(args.workload, args.seed, out_dir)
    except (SetupError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    os.makedirs(out_dir, exist_ok=True)
    info = machine_info()
    print(f"# {args.workload} seed={args.seed} jobs={len(jobs)} nproc={info['nproc']} "
          f"cpu={info['cpu_model']!r} python={info['python']}")
    errors = []
    try:
        if args.trace:
            untraced, setups = run_passes(jobs, 0, False, out_dir, started)
            samples, more = run_passes(jobs, 0, True, out_dir, started)
            every = [r for s in (untraced, samples) for results in s.values() for r in results]
            values = layer_metrics(samples, untraced)
            units = dict(tracing.METRICS)
            errors = coverage_errors(args.workload, values)
            detail = {"untraced": untraced, "setups": setups + more}
        else:
            samples, setups = run_passes(jobs, args.seconds, False, out_dir, started)
            every = [r for results in samples.values() for r in results]
            values, detail = end_to_end(samples, setups)
            detail["unscaled"], _ = end_to_end(samples, setups, scaled=False)
            detail["setups"] = setups
            units = dict(END_TO_END)
    except (SetupError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    failed = sum(not r["ok"] for r in every)
    unscaled = detail.get("unscaled", {})
    for name, value in values.items():
        raw = f" (unscaled {unscaled[name]:.6g})" if name in unscaled and name != "peak_rss_mb" else ""
        print(f"{name} = {value:.6g} {units[name]}{raw}")
    speeds = [r["speed"] for results in samples.values() for r in results]
    print(f"speed = {statistics.median(speeds):.4g} (median over samples of "
          f"{PROBE_REF_S * 1000:g} ms / probe time)")
    print(f"fail_ratio = {failed / len(every):.6g} ratio ({failed} of {len(every)} jobs)")
    if not args.trace:
        print(f"job_s_tail is p{detail['tail_percentile']} of N={detail['jobs']} jobs")
    for error in errors:
        print(f"coverage check failed: {error}", file=sys.stderr)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": info, **detail, "samples": samples}
    with open(os.path.join(out_dir, "result.json"), "w") as fh:
        json.dump(record, fh)
    correct = failed == 0 and not errors
    print(json.dumps({
        "correct": correct, "attempted": len(every), "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
