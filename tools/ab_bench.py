#!/usr/bin/env python3
"""Compare two git revisions on the benchmark, in alternating pairs.

    python3 tools/ab_bench.py PARENT CHANGE --seeds 401-410
    python3 tools/ab_bench.py HEAD~1 HEAD --seeds 401,402,403 --workloads postmhl-ec --out ab.json
    python3 tools/ab_bench.py HEAD WORKTREE --seeds 401-410
    python3 tools/ab_bench.py HEAD WORKTREE --seeds 401-410 --layers core.h2h.ch_p50_us,interval_query_us

Each revision is unpacked with `git archive` into its own temporary
directory (under $TMPDIR), so neither the working tree nor any ref of the
repository changes, and each side builds into its own directory. The change
side may be `WORKTREE`: then the files `git ls-files -co --exclude-standard`
lists (tracked and untracked, not ignored) are copied from the working tree
instead, so an uncommitted change can be compared without a commit. For every
seed and workload the script runs `perfbench/run.py` once on each side with
the same seed and `--seconds`; the side that runs first alternates from one
pair to the next. Workloads and end-to-end metrics come from the change's
`BENCHMARK.json`.

For each workload and end-to-end metric it prints each side's median and
quartiles, how many pairs the change won (ties count for neither side), and
whether a gain claim would hold: the change wins at least nine tenths of the
pairs and its median is better than the parent's by more than the distance
between the parent's quartiles. Quartiles interpolate linearly between the
sorted runs. A run that fails, or reports a wrong answer, is printed and left
out of the pairs. With `--out`, each pair also keeps both runs' `env` lines,
parsed (host nproc, JVM, JVM flags, source revision and the workload's
parameters), under "env", so a results file records the host it was run on.

The "no regression" column applies the metric's `bound` from `BENCHMARK.json`
(a fraction of the parent median):

    ok          the change median is not worse than the parent median by more
                than bound x parent median;
    worse       it is;
    unresolved  the parent's quartile spread exceeds bound x parent median and
                not every change run beats every parent run, so the runs spread
                too widely to tell.

With `--layers a,b,...` (names from the `per_layer` list of `BENCHMARK.json`)
each seed and workload also gets one traced run (`--trace 1`) per side, in the
same alternating order as its untraced pair, and a second table prints each
side's median of the named per-layer metrics over the traced pairs. These rows
only report where time moved: they never gate a change and never claim a gain.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKTREE = "WORKTREE"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds += range(int(lo), int(hi) + 1)
        else:
            seeds.append(int(part))
    return seeds


def unpack(rev, into):
    """Write the tree of `rev` (or the working tree, for WORKTREE) into the directory `into`."""
    os.makedirs(into)
    if rev == WORKTREE:
        listed = subprocess.run(["git", "ls-files", "-co", "--exclude-standard", "-z"], cwd=REPO,
                                stdout=subprocess.PIPE, check=True).stdout.decode().split("\0")
        for path in listed:
            src = os.path.join(REPO, path)
            if path and os.path.lexists(src):  # a tracked file deleted in the working tree is skipped
                os.makedirs(os.path.dirname(os.path.join(into, path)), exist_ok=True)
                shutil.copy2(src, os.path.join(into, path), follow_symlinks=False)
        return
    archive = subprocess.Popen(["git", "archive", "--format=tar", rev], cwd=REPO, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", into], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        sys.exit("ab_bench: git archive %s failed" % rev)


def run_once(side_dir, workload, seed, seconds, trace):
    """One benchmark run; returns its result object and its parsed `env` line (None if the run
    printed none), or None if it failed."""
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(side_dir, ".bench_build"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", trace]
    res = subprocess.run(cmd, cwd=side_dir, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines or not lines[-1].startswith("{"):
        log("  run failed (exit %d): %s" % (res.returncode, res.stderr.strip().splitlines()[-1:]))
        return None
    result = json.loads(lines[-1])
    if not result.get("correct", False) or result.get("failed", 0) != 0:
        log("  run reported %s wrong answers" % result.get("failed"))
        return None
    envs = [json.loads(line[len("env "):]) for line in lines if line.startswith("env {")]
    return result, (envs[-1] if envs else None)


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def no_regression(par, chg, pm, pq, cm, bound, lower):
    """ok, worse or unresolved under the no-regression rule with `bound` (see the docstring)."""
    limit = bound * abs(pm)
    beats_all = max(chg) < min(par) if lower else min(chg) > max(par)
    if pq[1] - pq[0] > limit and not beats_all:
        return "unresolved"
    rise = (cm - pm) if lower else (pm - cm)
    return "worse" if rise > limit else "ok"


def summarize(pairs, metrics):
    """Rows of (metric, parent stats, change stats, wins, claim holds, no regression)."""
    rows = []
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        got = [(p[name], c[name]) for p, c in pairs if name in p and name in c]
        if not got:
            continue
        par = [p for p, _ in got]
        chg = [c for _, c in got]
        wins = sum(1 for p, c in got if (c < p if lower else c > p))
        pm, cm = statistics.median(par), statistics.median(chg)
        pq, cq = quartiles(par), quartiles(chg)
        gain = (pm - cm) if lower else (cm - pm)
        holds = wins * 10 >= 9 * len(got) and gain > pq[1] - pq[0]
        verdict = no_regression(par, chg, pm, pq, cm, m["bound"], lower)
        rows.append((name, pm, pq, cm, cq, wins, len(got), holds, verdict))
    return rows


def fmt(x):
    return "{:,}".format(int(x)) if float(x).is_integer() else "%.4g" % x


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", help="git revision of the parent side")
    ap.add_argument("change", help="git revision of the change side, or WORKTREE for the working tree")
    ap.add_argument("--seeds", required=True, help="seeds, e.g. 401-410 or 401,405")
    ap.add_argument("--workloads", help="comma-separated workloads (default: all in BENCHMARK.json)")
    ap.add_argument("--seconds", type=float, help="run length (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--out", help="also write every run's metrics to this JSON file")
    ap.add_argument("--layers", help="comma-separated per-layer metrics to report from one traced "
                                     "run per side and seed (never gated, never claimed)")
    a = ap.parse_args()

    tmp = tempfile.mkdtemp(prefix="ab_bench-")
    try:
        sides = {"parent": os.path.join(tmp, "parent"), "change": os.path.join(tmp, "change")}
        unpack(a.parent, sides["parent"])
        unpack(a.change, sides["change"])
        with open(os.path.join(sides["change"], "BENCHMARK.json")) as f:
            bench = json.load(f)
        workloads = a.workloads.split(",") if a.workloads else [w["name"] for w in bench["workloads"]]
        seconds = a.seconds if a.seconds is not None else bench["run_seconds"]
        seeds = parse_seeds(a.seeds)
        layers = a.layers.split(",") if a.layers else []
        unknown = sorted(set(layers) - {m["name"] for m in bench["per_layer"]})
        if unknown:
            sys.exit("ab_bench: not per-layer metrics of BENCHMARK.json: %s" % ", ".join(unknown))

        def pair(w, seed, order, trace):
            got, envs = {}, {}
            for side in order:
                log("%s seed %d: %s%s" % (w, seed, side, " (traced)" if trace == "1" else ""))
                res = run_once(sides[side], w, seed, seconds, trace)
                if res is not None:
                    got[side] = {n: v["value"] for n, v in res[0]["metrics"].items()}
                    envs[side] = res[1]
            return {"seed": seed, "first": order[0], **got, "env": envs} if len(got) == 2 else None

        runs = {w: [] for w in workloads}
        traced = {w: [] for w in workloads}
        k = 0
        for seed in seeds:
            for w in workloads:
                order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
                k += 1
                got = pair(w, seed, order, "0")
                if got is not None:
                    runs[w].append(got)
                    log("  " + "  ".join("%s %s/%s" % (m["name"], fmt(got["parent"][m["name"]]),
                                                        fmt(got["change"][m["name"]]))
                                         for m in bench["end_to_end"] if m["name"] in got["parent"]))
                if layers:
                    got = pair(w, seed, order, "1")
                    if got is not None:
                        traced[w].append(got)

        if a.out:
            with open(a.out, "w") as f:
                json.dump({"parent": a.parent, "change": a.change, "seconds": seconds, "runs": runs,
                           "traced": traced}, f, indent=1)
        print("parent %s, change %s, --seconds %g, seeds %s" % (a.parent, a.change, seconds, a.seeds))
        print("| workload | metric | parent median [q1, q3] | change median [q1, q3] | change wins "
              "| claim holds | no regression |")
        print("|---|---|---|---|---|---|---|")
        for w in workloads:
            pairs = [(r["parent"], r["change"]) for r in runs[w]]
            for name, pm, pq, cm, cq, wins, n, holds, verdict in summarize(pairs, bench["end_to_end"]):
                print("| %s | %s | %s [%s, %s] | %s [%s, %s] | %d/%d | %s | %s |" % (
                    w, name, fmt(pm), fmt(pq[0]), fmt(pq[1]), fmt(cm), fmt(cq[0]), fmt(cq[1]), wins, n,
                    "yes" if holds else "no", verdict))
        if layers:
            print()
            print("Per layer, one traced run per side and seed (reported only: not gated, not claimed)")
            print("| workload | metric | parent median | change median | traced pairs |")
            print("|---|---|---|---|---|")
            for w in workloads:
                for name in layers:
                    got = [(r["parent"][name], r["change"][name]) for r in traced[w]
                           if name in r["parent"] and name in r["change"]]
                    if got:
                        print("| %s | %s | %s | %s | %d |" % (
                            w, name, fmt(statistics.median(p for p, _ in got)),
                            fmt(statistics.median(c for _, c in got)), len(got)))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    main()
