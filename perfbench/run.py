#!/usr/bin/env python3
"""Build the benchmark from the checkout's sources and run one workload.

    python3 perfbench/run.py --workload postmhl-ec --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first run compiles the repository's
core sources together with the benchmark code (sbt, offline) into the
directory named by CARGO_TARGET_DIR (default .bench_build); later runs reuse
that build while the sources are unchanged. The last line of standard output
is the result object. The exit code is non-zero if the sources are missing,
the build fails, or any answer differs from Dijkstra.
"""
import argparse
import hashlib
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CORE_SRC = os.path.join(ROOT, "src", "main", "scala")
# Fixed heap, generation sizes and collector, so runs of different commits
# compare like for like. The young generation holds several update batches'
# allocation, so the benchmark can collect between batches (see HeapGuard).
JVM_FLAGS = ["-Xms4g", "-Xmx4g", "-Xmn2560m", "-XX:+UseParallelGC", "-XX:-UseAdaptiveSizePolicy",
             "-XX:+AlwaysPreTouch"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def source_files():
    """Every file the build reads, sorted."""
    files = [os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    for top in (CORE_SRC, os.path.join(HERE, "src", "main")):
        for d, _, names in os.walk(top):
            files += [os.path.join(d, n) for n in names]
    return sorted(files)


def source_stamp():
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def sbt(args, timeout):
    env = dict(os.environ, COURSIER_MODE="offline")
    opts = env.get("SBT_OPTS", "")
    if "-Dsbt.offline=true" not in opts:
        env["SBT_OPTS"] = (opts + " -Dsbt.offline=true").strip()
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.supershell=false"] + args
    return subprocess.run(cmd, cwd=HERE, env=env, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True, timeout=timeout)


def build(out_dir):
    """Compile if the sources changed; return the runtime classpath."""
    stamp = source_stamp()
    stamp_file = os.path.join(out_dir, "stamp")
    cp_file = os.path.join(out_dir, "classpath")
    if os.path.exists(stamp_file) and os.path.exists(cp_file):
        with open(stamp_file) as f:
            if f.read().strip() == stamp:
                with open(cp_file) as f:
                    return f.read().strip()
    log("perfbench: compiling (sbt, offline) ...")
    t0 = time.time()
    res = sbt(["compile", "export Runtime/fullClasspath"], BUILD_TIMEOUT_S)
    sys.stderr.write(res.stdout)
    lines = [l.strip() for l in res.stdout.splitlines() if l.strip()]
    if res.returncode != 0 or not lines:
        sys.exit("perfbench: build failed")
    cp = lines[-1]
    if not all(os.path.exists(p) for p in cp.split(os.pathsep)):
        sys.exit("perfbench: could not read the classpath from sbt")
    os.makedirs(out_dir, exist_ok=True)
    with open(cp_file, "w") as f:
        f.write(cp + "\n")
    with open(stamp_file, "w") as f:
        f.write(stamp + "\n")
    log("perfbench: built in %.1f s" % (time.time() - t0))
    return cp


def revision(stamp):
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "sources-sha256:" + stamp[:16]
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if res.returncode == 0 and res.stdout.strip():
            return res.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "sources-sha256:" + stamp[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--self-test", action="store_true", help="run the benchmark's own unit tests")
    a = ap.parse_args()

    if not os.path.isdir(os.path.join(CORE_SRC, "repro")):
        sys.exit("perfbench: no repository sources at %s; run from the root of a checkout" % CORE_SRC)
    if a.self_test:
        res = sbt(["test"], BUILD_TIMEOUT_S)
        sys.stdout.write(res.stdout)
        sys.exit(res.returncode)
    if a.workload is None or a.seed is None or a.seconds is None:
        ap.error("--workload, --seed and --seconds are required")

    out_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(out_dir):
        out_dir = os.path.join(ROOT, out_dir)
    out_dir = os.path.join(out_dir, "perfbench")
    cp = build(out_dir)

    trace_file = os.path.join(out_dir, "traces", "trace-%s-seed%d.json" % (a.workload, a.seed))
    # A small coordinator JVM starts the measurement JVMs with JVM_FLAGS.
    cmd = ["java", "-Xmx256m", "-XX:+UseSerialGC", "-cp", cp, "repro.perfbench.Main",
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", a.trace, "--jvm", " ".join(JVM_FLAGS), "--out", trace_file,
           "--rev", revision(source_stamp())]
    # Own process group, so a timeout stops the measurement JVMs as well.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                            start_new_session=True)
    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)
    signal.signal(signal.SIGTERM, stop)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    lines = out.rstrip("\n").splitlines()
    if proc.returncode != 0:
        # A failed exactness check still prints its tally; pass it on.
        sys.stdout.write(out)
        sys.exit(proc.returncode)
    if not lines or not lines[-1].startswith("{"):
        sys.exit("perfbench: the run printed no result")
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
