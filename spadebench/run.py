#!/usr/bin/env python3
"""Spade benchmark: one run of one workload.

    python3 spadebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run builds the program's sources
together with the harness (sbt, see build.sbt); every run then starts a fresh
JVM and SparkSession (`spadebench.Main`), reads the event lines it prints and
turns them into metrics. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}: end-to-end metrics with
--trace 0, per-layer metrics with --trace 1. The line before it
("spadebench: {...}") carries sample counts, tails, drift and failures.
"""
import argparse
import fcntl
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
TARGET = os.path.join(BENCH, "target")
PROGRAM = os.path.join(ROOT, "src", "main", "scala", "repro")

RUN_LIMIT_S = 160       # the JVM's share of a run (after any build)
BUILD_LIMIT_S = 700
HEAP = "6g"             # not Spark's 1g default: see WORKLOADS.md, "Driver heap"

JAVA_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio", "java.base/java.util",
    "java.base/java.util.concurrent", "java.base/java.util.concurrent.atomic",
    "java.base/jdk.internal.ref", "java.base/sun.nio.ch", "java.base/sun.nio.cs",
    "java.base/sun.security.action", "java.base/sun.util.calendar",
]


def fail(msg):
    print(f"spadebench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_stamp():
    h = hashlib.sha256()
    roots = [os.path.join(ROOT, "src", "main"), os.path.join(BENCH, "src"),
             os.path.join(BENCH, "build.sbt"), os.path.join(BENCH, "project", "build.properties")]
    for r in roots:
        files = [r] if os.path.isfile(r) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(r) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def build():
    """Compile once per source state; returns the runtime classpath."""
    os.makedirs(TARGET, exist_ok=True)
    cp_file = os.path.join(TARGET, "classpath.txt")
    stamp_file = os.path.join(TARGET, "build.stamp")
    with open(os.path.join(TARGET, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        stamp = source_stamp()
        if not (os.path.exists(cp_file) and os.path.exists(stamp_file)
                and open(stamp_file).read() == stamp):
            env = dict(os.environ)
            if "SPARK_HOME" not in env and shutil.which("spark-submit"):
                env["SPARK_HOME"] = os.path.dirname(os.path.dirname(
                    os.path.realpath(shutil.which("spark-submit"))))
            env.setdefault("COURSIER_MODE", "offline")
            env.setdefault("SBT_OPTS", "-Dsbt.override.build.repos=true -Dsbt.offline=true")
            log = os.path.join(TARGET, "build.log")
            with open(log, "w") as out:
                try:
                    rc = subprocess.run(
                        ["sbt", "--batch", "-Dsbt.log.noformat=true", "writeClasspath"],
                        cwd=BENCH, env=env, stdout=out, stderr=subprocess.STDOUT,
                        stdin=subprocess.DEVNULL, timeout=BUILD_LIMIT_S).returncode
                except (OSError, subprocess.TimeoutExpired) as e:
                    fail(f"build failed: {e}")
            if rc != 0 or not os.path.exists(cp_file):
                sys.stderr.write(open(log).read()[-4000:])
                fail(f"build failed (exit {rc}), see {log}")
            with open(stamp_file, "w") as fh:
                fh.write(stamp)
    return open(cp_file).read().strip()


def run_jvm(cp, args, deadline):
    """Run one JVM, collecting its event lines until it ends or the deadline."""
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    tmp = os.path.join(TARGET, "tmp", tag)
    logs = os.path.join(TARGET, "logs")
    os.makedirs(tmp, exist_ok=True)
    os.makedirs(logs, exist_ok=True)
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if "JAVA_HOME" in os.environ else "java"
    cmd = [java, f"-Xmx{HEAP}", "-XX:+IgnoreUnrecognizedVMOptions",
           *[f"--add-opens={m}=ALL-UNNAMED" for m in JAVA_OPENS],
           "-Djdk.reflect.useDirectMethodHandle=false", "-Dio.netty.tryReflectionSetAccessible=true",
           f"-Djava.io.tmpdir={tmp}", "-cp", cp, "spadebench.Main",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--tmp", tmp,
           "--spans", os.path.join(TARGET, "traces", f"{args.workload}-s{args.seed}.jsonl")]
    events = []
    started = time.monotonic()

    def read(stream):
        # Each event is stamped with its arrival (seconds since launch), so
        # an operation the JVM dies in still gets its real elapsed time.
        for line in stream:
            if line.startswith("@@ "):
                events.append(dict(json.loads(line[3:]), at=time.monotonic() - started))

    with open(os.path.join(logs, tag + ".log"), "w") as err:
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=err,
                                stdin=subprocess.DEVNULL, text=True)
        reader = threading.Thread(target=read, args=(proc.stdout,))
        reader.start()
        timed_out = False
        try:
            proc.wait(max(1.0, deadline - time.time()))
        except subprocess.TimeoutExpired:
            timed_out = True
            proc.terminate()
            try:
                proc.wait(10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        reader.join()
        wall_s = time.monotonic() - started
    shutil.rmtree(tmp, ignore_errors=True)
    return events, proc.returncode, timed_out, wall_s


def median(xs):
    return statistics.median(xs) if xs else None


def tail(xs):
    """Highest percentile with at least ten samples beyond it: (value, level)."""
    n = len(xs)
    if n < 11:
        return None, None
    return sorted(xs)[n - 11], round(100.0 * (n - 10) / n, 1)


def completed(q):
    """The query returned an ARM (which may still have failed a check)."""
    return bool(q.get("ok") or q.get("wrong"))


def latencies(qs, wall_s):
    """Latencies; a query that did not complete counts as the run's whole
    wall time, so it ranks slower than every completed query."""
    return [q["s"] if completed(q) else wall_s for q in qs]


def drift(qs, wall_s):
    """Per query kind, median of the second half over the first, minus 1; mean over kinds."""
    ratios = []
    for kind in ("full", "es"):
        xs = latencies([q for q in qs if q["kind"] == kind], wall_s)
        h = len(xs) // 2
        if h >= 1:
            ratios.append(median(xs[len(xs) - h:]) / median(xs[:h]) - 1.0)
    return statistics.mean(ratios) if ratios else None


def mdas_per_s(qs, wall_s):
    """Candidate MDAs decided (evaluated + pruned) per second over a mix of
    one query of each kind: per kind, median decided over median latency, so
    the figure does not depend on how many queries of each kind a run made.
    A query that did not complete decided nothing and took `latencies`' time.
    """
    kinds = sorted({q["kind"] for q in qs})
    if not kinds:
        return None
    of = lambda k: [q for q in qs if q["kind"] == k]
    decided = sum(median([q["evaluated"] + q["pruned"] if completed(q) else 0 for q in of(k)])
                  for k in kinds)
    return decided / sum(median(latencies(of(k), wall_s)) for k in kinds)


def summarize(events, rc, timed_out, wall_s, trace):
    ops = [e for e in events if e.get("ev") == "op"]
    by = lambda name: [e for e in ops if e["op"] == name]
    gens, preps, warms, queries = by("generate"), by("prepare"), by("warmup"), by("query")
    checks = by("check")
    plans = [e["checks"] for e in events if e.get("ev") == "plan"]
    planned = plans[-1] if plans else 0
    ended = any(e.get("ev") == "end" for e in events)
    fatal = [e["err"] for e in events if e.get("ev") == "fatal"]
    fatal_at = [e["at"] for e in events if e.get("ev") == "fatal"]
    storage = {e["what"]: e for e in events if e.get("ev") == "storage"}

    # A query the JVM died in counts as failed, with its real elapsed time
    # (until the JVM's last event or its end); any other operation cut off by
    # a fatal error is "lost".
    pending = None
    for e in events:
        if e.get("ev") == "begin":
            pending = e
        elif e.get("ev") == "op" and e["op"] in ("query", "warmup"):
            pending = None
    if pending and not ended:
        (queries if pending["op"] == "query" else warms).append(
            dict(pending, ev="op", ok=False, err="fatal",
                 s=(fatal_at[0] if fatal_at else wall_s) - pending["at"]))
    ok_checks = sum(1 for c in checks if c.get("ok"))
    # Main plans the checks again when the query loop is over: a death after
    # that is in a check, which already counts as failed.
    in_checks = len(plans) > 1
    lost = 0 if ended or in_checks or pending else 1
    main_ops = gens + preps + warms + queries
    attempted = len(main_ops) + planned + lost
    failed = sum(1 for e in main_ops if not e.get("ok")) + (planned - ok_checks) + lost
    wrong = [q for q in warms + queries if q.get("wrong")]
    correct = ended and ok_checks == planned and not wrong

    full = [q for q in queries if q["kind"] == "full"]
    es = [q for q in queries if q["kind"] == "es"]
    untraced = [q for q in queries if not q.get("traced")]

    e2e = {
        "setup_s": (median([g["s"] for g in gens]) or 0.0) + sum(w["s"] for w in warms)
        if gens else None,
        "prepare_s": sum(p["s"] for p in preps) if preps else None,
        "query_p50_s": median(latencies([q for q in full if not q.get("traced")], wall_s)),
        "es_query_p50_s": median(latencies([q for q in es if not q.get("traced")], wall_s)),
        "mdas_per_s": mdas_per_s(untraced, wall_s),
        # An early-stop query that did not complete returned none of the top-k.
        "topk_recall": statistics.mean([q["recall"] if completed(q) else 0.0 for q in es])
        if es else None,
        "cached_mb": storage["cached"]["mb"] if "cached" in storage else None,
    }
    units = {"setup_s": "s", "prepare_s": "s", "query_p50_s": "s", "es_query_p50_s": "s",
             "mdas_per_s": "1/s", "topk_recall": "fraction", "cached_mb": "MB"}

    info = {"workload_ok": ended, "fatal": fatal[0] if fatal else None, "jvm_exit": rc,
            "timed_out": timed_out, "wall_s": round(wall_s, 3), "errors": sorted({str(e.get("err")) for e in ops
                                                      if not e.get("ok")})[:5],
            "samples": {k: len([q for q in untraced if q["kind"] == k]) for k in ("full", "es")},
            "drift_frac": drift(untraced, wall_s),
            "latencies": {k: [round(q["s"], 3) for q in untraced if q["kind"] == k]
                          for k in ("full", "es")}}
    for kind, qs in (("full", full), ("es", es)):
        value, level = tail(latencies([q for q in qs if not q.get("traced")], wall_s))
        info[f"{kind}_tail_s"], info[f"{kind}_tail_pct"] = value, level
    if preps:
        info["sizes"] = {"triples": sum(p["triples"] for p in preps),
                         "cfss": sum(p["cfss"] for p in preps),
                         "lattices": sum(p["lattices"] for p in preps),
                         "candidate_mdas": sum(p["candidate_mdas"] for p in preps)}
    if warms:
        info["result_groups"] = warms[0].get("result_groups")
    if "cached" in storage:
        info["storage_memory_mb"] = storage["cached"].get("storage_memory_mb")
    if "leaked" in storage:
        info["leaked_mb"] = storage["leaked"]["mb"]
    info["e2e"] = e2e

    if not trace:
        metrics = {k: {"value": v, "unit": units[k]} for k, v in e2e.items() if v is not None}
    else:
        metrics = per_layer(events, gens, preps, queries, storage, failed, attempted, info)
    return {"correct": bool(correct), "attempted": attempted, "failed": failed,
            "metrics": metrics}, info


def per_layer(events, gens, preps, queries, storage, failed, attempted, info):
    spans = next((e["by_name"] for e in events if e.get("ev") == "spans"), {})
    tr_full = [q for q in queries if q.get("traced") and q["kind"] == "full" and q.get("ok")]
    tr_es = [q for q in queries if q.get("traced") and q["kind"] == "es" and q.get("ok")]
    ok = [q for q in queries if q.get("ok")]
    es_ok = [q for q in ok if q["kind"] == "es"]

    def med(qs, field):
        return median([q[field] for q in qs if q.get(field) is not None])

    def timing(step):
        return sum(p["timings_ms"].get(step, 0) for p in preps) / 1000.0

    def span_failed(*names):
        return sum(spans.get(n, {}).get("failed_tasks", 0) for n in names)

    overhead = []
    for kind in ("full", "es"):
        t = [q["s"] for q in queries if q.get("ok") and q["kind"] == kind and q.get("traced")]
        u = [q["s"] for q in queries if q.get("ok") and q["kind"] == kind and not q.get("traced")]
        if t and u:
            overhead.append(median(t) / median(u) - 1.0)

    m = {
        "rdf.generate_s": (median([g["s"] for g in gens]), "s"),
        "rdf.triples": (sum(p["triples"] for p in preps), "count"),
        "summary.classes_s": (sum(p.get("summary_classes_s") or 0.0 for p in preps), "s"),
        "spade.cfs_s": (timing("cfsSelection"), "s"),
        "spade.attr_s": (timing("attributeAnalysis"), "s"),
        "spade.enum_s": (timing("aggregateEnumeration"), "s"),
        "spade.preagg_s": (timing("measurePreAggregation") + sum(p["force_s"] for p in preps), "s"),
        "spade.cfss": (sum(p["cfss"] for p in preps), "count"),
        "spade.lattices": (sum(p["lattices"] for p in preps), "count"),
        "spade.candidate_mdas": (sum(p["candidate_mdas"] for p in preps), "count"),
        "spade.leaked_mb": (storage.get("leaked", {}).get("mb"), "MB"),
        "core.eval_s": (med(tr_full, "eval_s"), "s"),
        "core.job_s": (med(tr_full, "job_s"), "s"),
        "core.driver_s": (med(tr_full, "driver_s"), "s"),
        "core.catalyst_s": (med(tr_full, "catalyst_s"), "s"),
        "core.jobs_per_query": (med(tr_full, "jobs"), "count"),
        "core.exec_cpu_s": (med(tr_full, "exec_cpu_s"), "s"),
        "core.shuffle_write_mb": (med(tr_full, "shuffle_write_mb"), "MB"),
        "core.shuffle_records_per_group": (median([q["shuffle_records"] / q["result_groups"]
                                                   for q in tr_full if q["result_groups"]]), "ratio"),
        "core.result_groups": (med(tr_full, "result_groups"), "count"),
        "core.arm_reuse_frac": (statistics.mean(
            [q["reused"] / max(1, q["evaluated"] + q["reused"] + q["pruned"]) for q in ok])
            if ok else None, "fraction"),
        "core.gc_s": (med(tr_full + tr_es, "gc_s"), "s"),
        "core.failed_tasks": (span_failed("query.full", "query.es"), "count"),
        "earlystop.eval_s": (med(tr_es, "eval_s"), "s"),
        "earlystop.jobs_per_query": (med(tr_es, "jobs"), "count"),
        "earlystop.pruned_frac": (statistics.mean(
            [q["pruned"] / max(1, q["evaluated"] + q["pruned"]) for q in es_ok])
            if es_ok else None, "fraction"),
        "earlystop.sample_job_s": (med(tr_es, "sample_job_s"), "s"),
        "earlystop.result_mb": (med(tr_es, "sample_result_mb"), "MB"),
        "earlystop.heap_peak_mb": (max([q["heap_peak_mb"] for q in tr_es
                                        if q.get("heap_peak_mb") is not None], default=None), "MB"),
        "earlystop.failed_tasks": (sum(q.get("sample_failed_tasks", 0) for q in tr_es), "count"),
        "rdf.failed_tasks": (span_failed("rdf.generate"), "count"),
        "spade.failed_tasks": (span_failed("spade.prepare", "summary.classes"), "count"),
        "failed_frac": (failed / attempted if attempted else None, "fraction"),
        "query.samples": (len(queries), "count"),
        "query.drift_frac": (info["drift_frac"], "fraction"),
        "trace.overhead_frac": (statistics.mean(overhead) if overhead else None, "fraction"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items() if v is not None}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isdir(PROGRAM):
        fail(f"program sources not found ({os.path.relpath(PROGRAM, os.getcwd())}); "
             "run from the root of a full checkout")
    cp = build()
    events, rc, timed_out, wall_s = run_jvm(cp, args, time.time() + RUN_LIMIT_S)
    if not any(e.get("ev") == "start" for e in events):
        fail(f"the benchmark JVM did not start (exit {rc}); see {os.path.relpath(TARGET)}/logs")
    result, info = summarize(events, rc, timed_out, wall_s, args.trace == 1)
    print("spadebench: " + json.dumps(info, sort_keys=True))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
