"""tatejoin benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload {bar-homology,resolve,products}
                         --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/`` next to this directory, nothing is installed.  The load model is a
closed loop with one client: the next query starts only when the previous
one has answered, in this single-threaded process.  A pass runs every query
of the workload once, in an order drawn from the seed; passes repeat until
``--seconds`` have gone by.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:

* ``setup_s``: imports plus one warm-up query (which pays the program's lazy
  imports), plus the median of three repetitions of the workload's fixture
  builds, if it has any;
* ``wall_s``: median wall time of one pass (the sum of its query times);
* ``peak_rss_mb``: peak resident memory of this process;
* ``ok_frac``: queries that answered correctly within their deadline,
  divided by queries attempted.

With ``--trace 1`` untraced and traced passes alternate; the last line
reports the per-layer metrics of the traced passes (medians over passes)
and ``trace.overhead_frac``, the traced median pass time over the untraced
one, minus 1.  The traced run also checks that every span the workload is
meant to exercise recorded at least one call.

A query fails if it raises, if its answer differs from the pinned one, if
two pipelines that must agree do not, if it passes its deadline, or if it is
skipped because a query it depends on failed in the same pass.  Only the
deadline of a query marked as a known failure leaves the run correct; any
other failure, even once in one pass, makes it exit 1.  The line before the
last one holds per-query times and failure causes.
"""

from __future__ import annotations

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402  (the clock above starts before any import)
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOAD_NAMES = ("bar-homology", "resolve", "products")
BUILD_ROUNDS = 3


class Deadline(BaseException):
    """Raised into a query that ran past its deadline.

    A BaseException, so no ``except Exception`` in the program swallows it.
    """


class Alarm:
    """Per-query deadline on SIGALRM, in this thread, with no helper thread."""

    def __init__(self):
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            self.armed = False
            raise Deadline()

    def arm(self, seconds: float) -> None:
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, seconds)

    def disarm(self) -> None:
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_program():
    """Import tatejoin from this checkout's src/, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "tatejoin", "__init__.py")):
        print(f"error: no tatejoin sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import tatejoin
    if os.path.dirname(os.path.dirname(tatejoin.__file__)) != SRC:
        print(f"error: tatejoin was imported from {tatejoin.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        sys.exit(2)


def run_query(q, state, seed, alarm):
    """(status, seconds, detail) of one query.

    status is ok, deadline, drift, skipped or error.
    """
    from workloads import Drift, Skipped
    rng = random.Random(f"{seed}:{q.name}")
    t0 = perf_counter()
    try:
        try:
            alarm.arm(q.deadline_s)
            answer = q.fn(state, rng)
        finally:
            alarm.disarm()
        dt = perf_counter() - t0
        answer = json.loads(json.dumps(answer))
        if answer != q.pin:
            return "drift", dt, f"expected {q.pin}, got {answer}"
        return "ok", dt, ""
    except Deadline:
        return "deadline", perf_counter() - t0, \
            q.known_failure or f"past its {q.deadline_s:g} s deadline"
    except Drift as e:
        return "drift", perf_counter() - t0, str(e)
    except Skipped as e:
        return "skipped", perf_counter() - t0, str(e)
    except Exception as e:  # every other failure is reported, not raised
        return "error", perf_counter() - t0, f"{type(e).__name__}: {e}"


def run_pass(workload, state, seed, order_rng, alarm, recorder, log):
    """Run every query once; returns the pass time, the sum of query times.

    Garbage left by one query is collected before the next starts, outside
    the timed span, so neither its memory nor a collection it would trigger
    lands on a later query.
    """
    total = 0.0
    for phase in workload.phases:
        order = list(phase)
        order_rng.shuffle(order)
        for q in order:
            gc.collect()
            status, dt, detail = run_query(q, state, seed, alarm)
            if recorder is not None:
                recorder.stack.clear()  # frames a deadline left open
            log.append((q.name, status, dt, detail))
            total += dt
    return total


def setup(workload, state) -> float:
    """setup_s: see the module docstring."""
    workload.warmup(state)
    t_first = perf_counter() - T_START
    if workload.build is None:
        return t_first
    times = []
    for _ in range(BUILD_ROUNDS):
        t0 = perf_counter()
        workload.build(state)
        times.append(perf_counter() - t0)
    return t_first + statistics.median(times)


def measure(args, workload, state, recorder):
    """Passes until --seconds are over: (plain, traced, per_layer, calls, log).

    plain and traced hold pass times; per_layer one metrics dict per traced
    pass; calls the span call counts summed over traced passes.
    """
    alarm = Alarm()
    order_rng = random.Random(args.seed)
    log: list[tuple] = []
    plain, traced, per_layer = [], [], []
    calls: dict[str, int] = {}
    t0 = perf_counter()
    while True:
        want_trace = args.trace and len(traced) < len(plain)
        if want_trace:
            recorder.reset()
            recorder.install()
            try:
                traced.append(run_pass(workload, state, args.seed, order_rng,
                                       alarm, recorder, log))
            finally:
                recorder.uninstall()
            per_layer.append(recorder.metrics())
            for span, n in recorder.calls.items():
                calls[span] = calls.get(span, 0) + n
        else:
            plain.append(run_pass(workload, state, args.seed, order_rng,
                                  alarm, None, log))
        if perf_counter() - t0 >= args.seconds and (
                not args.trace or traced):
            break
    return plain, traced, per_layer, calls, log


def summarize(log, known_names):
    queries: dict[str, dict] = {}
    for name, status, dt, detail in log:
        q = queries.setdefault(name, {"times": [], "status": {}})
        q["times"].append(dt)
        q["status"][status] = q["status"].get(status, 0) + 1
        if detail:
            q["cause"] = detail
    out = {}
    for name, q in queries.items():
        out[name] = {"median_s": round(statistics.median(q["times"]), 6),
                     "runs": len(q["times"]), "status": q["status"]}
        if "cause" in q:
            out[name]["cause"] = q["cause"]
            out[name]["known_failure"] = name in known_names
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import workloads
    recorder = None
    if args.trace:
        import spans
        recorder = spans.Recorder()
    workload = workloads.WORKLOADS[args.workload]
    tmpdir = os.path.join(ROOT, ".bench_run", str(os.getpid()))
    os.makedirs(tmpdir)
    state = {"tmpdir": tmpdir}
    try:
        setup_s = setup(workload, state)
        plain, traced, per_layer, calls, log = measure(args, workload,
                                                       state, recorder)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmpdir))
        except OSError:
            pass  # another run still uses it
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    known = {q.name for q in workload.queries if q.known_failure}
    attempted = len(log)
    failed = sum(1 for _, status, _, _ in log if status != "ok")
    problems = sorted({f"{name}: {status}" for name, status, _, _ in log
                       if status != "ok"
                       and not (status == "deadline" and name in known)})

    if args.trace:
        silent = [s for s in workload.exercised if not calls.get(s)]
        problems += [f"self-test: span {s} recorded no call" for s in silent]
        metrics = {name: {"value": statistics.median(
                            [sample[name] for sample in per_layer]),
                          "unit": unit}
                   for name, unit in spans.PER_LAYER
                   if name in per_layer[0]}
        metrics["trace.overhead_frac"] = {
            "value": statistics.median(traced) / statistics.median(plain) - 1,
            "unit": "ratio"}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(plain), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
            "ok_frac": {"value": (attempted - failed) / attempted,
                        "unit": "ratio"},
        }
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(plain) + len(traced),
        "pass_s": [round(t, 4) for t in plain],
        "traced_pass_s": [round(t, 4) for t in traced],
        "queries": summarize(log, known), "problems": problems,
    }, sort_keys=True))
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
