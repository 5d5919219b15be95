#!/usr/bin/env python3
"""Run one benchmark workload and print its JSON result as the last line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run in a checkout compiles the program's sources together with the
benchmark's code (perfbench/build.sbt) into perfbench/target and records the
runtime classpath under .bench_build/; later runs reuse it while the sources
are unchanged. Each run then starts one JVM (perfbench.Main) that builds the
workload's inputs from the seed, measures, checks the outputs and prints the
result. Spark's scratch files stay under .bench_build/. The exit code is
non-zero if the build fails, an output check fails or the run overruns.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build")
# The program's sources the benchmark compiles, relative to the checkout root.
SOURCES = ("src/main/scala", "jobs")
# A first run builds and then measures; both together stay under 900 s.
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170
HEAP = ["-Xms3g", "-Xmx3g"]
# RR-set cap of the Com-IC baselines (the program's default is 120000). RR-SIM+
# reaches the cap on the Flixster stand-in, so the cap sets its cost; a sixth
# keeps fig4-flixster-comic inside the benchmark's time budget.
COMIC_MAX_RR = 20000

# JDK 17 module opens that spark-submit would add; Spark's serializers
# reflect into these packages.
OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar",
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def source_files():
    roots = [os.path.join(ROOT, s) for s in SOURCES] + [os.path.join(HERE, "src")]
    files = [os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    for r in roots:
        for d, _, names in os.walk(r):
            files += [os.path.join(d, n) for n in names]
    return sorted(files)


def stamp():
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def child_env():
    # Program knobs read from the environment must not change what is measured,
    # and Spark's scratch directory stays in the checkout.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_COMIC_MAX_RR"] = str(COMIC_MAX_RR)
    env["SPARK_LOCAL_DIRS"] = os.path.join(WORK, "spark-local")
    return env


def run_group(cmd, cwd, timeout, stdout):
    """Run cmd in its own process group; kill the group on timeout."""
    p = subprocess.Popen(cmd, cwd=cwd, env=child_env(), stdout=stdout, stderr=sys.stderr,
                         stdin=subprocess.DEVNULL, start_new_session=True, text=True)
    try:
        out, _ = p.communicate(timeout=timeout)
        return p.returncode, out
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        return None, None
    except BaseException:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        raise


def classpath():
    """Compile if the sources changed since the last build; return the classpath."""
    cp_file = os.path.join(WORK, "classpath.txt")
    want = stamp()
    if os.path.exists(cp_file):
        with open(cp_file) as fh:
            have, cp = fh.read().split("\n", 1)
        if have == want and os.path.isdir(os.path.join(HERE, "target")):
            return cp.strip()
    t0 = time.time()
    # sbt keeps its per-user state (compiler bridge, staging) in the checkout;
    # it reads dependencies from the toolchain's offline caches.
    code, out = run_group(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", f"-Dsbt.global.base={os.path.join(WORK, 'sbt')}",
         "compile", "export Runtime/fullClasspath"],
        HERE, BUILD_TIMEOUT_S, subprocess.PIPE)
    if code != 0:
        fail("build failed" if code is not None else "build timed out")
    lines = [l.strip() for l in out.splitlines() if l.strip()]
    cp = lines[-1] if lines else ""
    if "perfbench" not in cp or ".jar" not in cp:
        fail("build did not report a runtime classpath")
    with open(cp_file, "w") as fh:
        fh.write(want + "\n" + cp + "\n")
    print(f"perfbench: built in {time.time() - t0:.1f} s", file=sys.stderr)
    return cp


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="a workload named in BENCHMARK.json")
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    missing = [s for s in SOURCES if not os.path.isdir(os.path.join(ROOT, s))]
    if missing:
        fail(f"program sources not found in this checkout: {', '.join(missing)}")
    for d in ("tmp", "spark-local"):
        os.makedirs(os.path.join(WORK, d), exist_ok=True)
    cp = classpath()

    cmd = (["java"] + HEAP + [f"-Djava.io.tmpdir={os.path.join(WORK, 'tmp')}",
            "-XX:+IgnoreUnrecognizedVMOptions"]
           + [f"--add-opens={p}=ALL-UNNAMED" for p in OPENS]
           + ["-cp", cp, "perfbench.Main",
              "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", args.trace, "--work-dir", WORK])
    code, out = run_group(cmd, ROOT, RUN_TIMEOUT_S, subprocess.PIPE)
    if code is None:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = [l for l in out.splitlines() if l.strip()]
    for l in lines[:-1]:
        print(l, file=sys.stderr)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"run printed no result (exit code {code})")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result")
    print(json.dumps(result))
    sys.exit(0 if code == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
