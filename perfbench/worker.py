"""Fork server that runs benchmark jobs, each in a fresh child process.

    python3 worker.py ROOT

The server imports ``cuberec.cli`` from ``ROOT/src`` once and prints one JSON
line, ``{"ready_at": <time.monotonic()>}``.  Then, for each JSON request line
on stdin (the job, ``trace``, ``spans_dir``), it forks a child that decodes
the job's inputs, times the job call, checks the output and prints one JSON
line: the job's wall and CPU time, ``done_at`` (``time.monotonic()`` at the end
of the job call), the child's peak RSS, whether the output passed its check
and how long the check took, and with ``trace`` the per-layer aggregates.
After the child has ended the server prints ``{"exit": <exit code>}``.

The server itself never runs a job, so every child starts with the caches of
a freshly imported ``cuberec``: the module-level ``lru_cache`` on
``groves._grove_degree_items`` is empty and no ``InitialConditions`` exists.
Only the job call is timed; the check runs after it, by a route that does not
reuse the timed result's code path.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback

import oracle

_TAGGED = {"x": "xvar", "a": "avar", "b": "bvar", "c": "cvar", "y": "yvar"}


def fingerprint(poly) -> str:
    """SHA-256 of the canonical ``laurent.to_json`` form."""
    from cuberec import laurent

    text = json.dumps(laurent.to_json(poly), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def peak_rss_mb() -> float:
    """This process's own peak RSS in MB (2**20 bytes).

    Linux carries ``ru_maxrss`` across exec, so a worker's ``ru_maxrss`` can be
    the parent's RSS at spawn time; ``VmHWM`` counts only this process's pages.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def to_varkey(name):
    """The ``cuberec`` variable key of a benchmark variable name."""
    from cuberec import laurent

    if len(name) == 1:
        return getattr(laurent, name[0].upper())
    return getattr(laurent, _TAGGED[name[0]])(*name[1:])


class Job:
    """Decoded inputs of one job, its timed call and its check."""

    def __init__(self, job: dict):
        from cuberec import lattice

        self.job = job
        self.kind = job["kind"]
        self.mode = job.get("mode")
        if "u_fin" in job and self.kind != "verify":
            self.u_fin = [tuple(p) for p in job["u_fin"]]
            self.ic = lattice.InitialConditions(self.u_fin)
        if "gr" in job:
            from cuberec import sequences

            self.spec = sequences.GaleRobinsonSpec(*job["gr"])
        if self.kind == "numeric":
            self.names, self.assign = self.point()
        if self.kind == "verify":
            self.argv = ["verify"]
            if "ic_file" in job:
                self.argv += ["--ic-file", job["ic_file"]]
            else:
                self.argv += ["--preset", job["name"]]
            if job.get("props"):
                self.argv += ["--props", job["props"]]

    def point(self, names=None):
        """Seeded positive rationals for every variable the recurrence reads."""
        if names is None:
            names = oracle.recurrence_variables(self.u_fin, abc=self.mode == "abc")
        named = oracle.rational_point(self.job["point_seed"], names)
        return named, {to_varkey(n): v for n, v in named.items()}

    def run(self):
        from cuberec import cli, groves, recurrence, sequences

        kind, job = self.kind, self.job
        if kind == "symbolic":
            return recurrence.f_symbolic(self.ic, self.mode)
        if kind == "substitution":
            return recurrence.f_via_substitution(self.ic, self.mode)
        if kind == "numeric":
            return recurrence.f_numeric(self.ic, self.assign, self.mode)
        if kind == "gr_symbolic":
            return sequences.gr_symbolic(self.spec, job["l"])
        if kind == "gr_terms":
            return sequences.gr_terms(self.spec, job["count"])
        if kind == "local_moves":
            return groves.enumerate_local_moves(self.ic)
        if kind == "certificate":
            return sequences.gr_certificate(self.spec, job["l"])
        if kind == "verify":
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                try:
                    status = cli.main(self.argv)
                except SystemExit as exc:
                    status = exc.code
            return status, out.getvalue()
        raise ValueError(f"unknown job kind {kind!r}")

    def check(self, result) -> str | None:
        """None when the output is right, else what is wrong with it."""
        from cuberec import groves, laurent, recurrence

        kind, job = self.kind, self.job
        if kind in ("symbolic", "substitution"):
            _, assign = self.point()
            if laurent.evaluate(result, assign) != recurrence.f_numeric(self.ic, assign, self.mode):
                return "value at a rational point differs from f_numeric"
            if self.mode == "edge-vars" and len(result) != oracle.grove_count(self.u_fin):
                return f"{len(result)} terms, {oracle.grove_count(self.u_fin)} groves"
        elif kind == "numeric":
            own = oracle.cube_values(self.u_fin, self.names.__getitem__).get((0, 0, 0))
            if result != own:
                return "f_numeric differs from the reference recurrence"
        elif kind == "gr_symbolic":
            p, q, r = job["gr"]
            names = [("y", m) for m in range(p + q + r)] + [("alpha",), ("beta",), ("gamma",)]
            named, assign = self.point(names)
            start = [named[("y", m)] for m in range(p + q + r)]
            coeffs = (named[("alpha",)], named[("beta",)], named[("gamma",)])
            own = oracle.gr_values(p, q, r, job["l"] + 1, start, coeffs)[-1]
            if laurent.evaluate(result, assign) != own:
                return "value at a rational point differs from the reference recurrence"
        elif kind == "gr_terms":
            if result != oracle.gr_values(*job["gr"], job["count"]):
                return "terms differ from the reference recurrence"
        elif kind == "local_moves":
            want = oracle.grove_count(self.u_fin)
            if len(result) != want:
                return f"{len(result)} groves, reference count {want}"
            try:
                brute = groves.enumerate_bruteforce(self.ic)
            except groves.TooLarge:
                brute = None
            if brute is not None and {g.long_edges for g in brute} != {g.long_edges for g in result}:
                return "local moves and brute force found different groves"
        elif kind == "certificate":
            want = oracle.gr_values(*job["gr"], job["l"] + 1)[-1]
            if result.grove_count != want or not result.count_match:
                return f"{result.grove_count} groves, reference count {want}"
        elif kind == "verify":
            status, text = result
            if status != 0:
                return f"exit status {status}"
            report = json.loads(text)
            props = job["props"].split(",") if job.get("props") else None
            if props is not None and len(report["results"]) != len(props):
                return "report lists the wrong number of properties"
            failed = [r["property"] for r in report["results"] if r["pass"] is not True]
            if failed or report["pass"] is not True:
                return f"properties failed: {failed}"
        if job.get("fingerprint") and fingerprint(result) != job["fingerprint"]:
            return "polynomial differs from the stored fingerprint"
        return None


def child(request: dict) -> None:
    """Run one job in this forked process and print its result line."""
    out = {"ok": False, "error": None}
    try:
        job = Job(request["job"])
        tracer = None
        if request["trace"]:
            import tracing

            tracer = tracing.Tracer(request["job"]["id"])
            tracer.install()
        try:
            c0, t0 = time.process_time(), time.perf_counter()
            result = job.run()
            t1, c1 = time.perf_counter(), time.process_time()
        finally:
            if tracer is not None:
                tracer.remove()
        out["done_at"] = time.monotonic()
        out["job_s"], out["cpu_s"] = t1 - t0, c1 - c0
        out["rss_mb"] = peak_rss_mb()
        if tracer is not None:
            out["layers"] = tracer.aggregate()
            tracer.write(request["spans_dir"])
        out["error"] = job.check(result)
        out["ok"] = out["error"] is None
        out["check_s"] = time.monotonic() - out["done_at"]
    except Exception:  # a job that raises is a failed job, reported not crashed
        out["error"] = traceback.format_exc(limit=3)
    print(json.dumps(out), flush=True)


def main() -> int:
    sys.path.insert(0, os.path.join(sys.argv[1], "src"))
    import cuberec.cli  # noqa: F401  (the whole package, as the CLI loads it)

    print(json.dumps({"ready_at": time.monotonic()}), flush=True)
    for line in sys.stdin:
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                child(json.loads(line))
                status = 0
            finally:
                os._exit(status)
        _, status = os.waitpid(pid, 0)
        print(json.dumps({"exit": os.waitstatus_to_exitcode(status)}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
