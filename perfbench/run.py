#!/usr/bin/env python3
"""Run one workload of the BClean benchmark and print its result.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload beers-pip --seed 1 --seconds 15 --trace 0

On first use (or when any source is newer than the last build) the benchmark
and the program's sources are compiled with sbt, offline, into
perfbench/target; the classpath is cached in .bench_build/classpath.txt. The
run itself is one JVM (perfbench.Main) whose last standard-output line is the
JSON result. Everything the run writes stays inside the checkout
(.bench_build/). Exits non-zero, printing no result, when the program's
sources are missing, the build fails, or any check inside the run fails hard.
"""
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CLASSPATH_FILE = os.path.join(BUILD, "classpath.txt")
PROGRAM_SRC = os.path.join(ROOT, "src", "main", "scala")

BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170

# The JVM flags Spark's own launcher adds on Java 17 (JavaModuleOptions).
JAVA_MODULE_OPTS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
]

# Fixed heap so that peak_rss_mb compares like with like across commits.
JAVA_HEAP_OPTS = ["-Xms3g", "-Xmx3g", "-XX:+UseParallelGC", "-XX:-UseAdaptiveSizePolicy"]


def fail(msg):
    print(f"[perfbench] {msg}", file=sys.stderr)
    sys.exit(2)


def sources():
    for base in (PROGRAM_SRC, os.path.join(HERE, "src")):
        for d, _, files in os.walk(base):
            for f in files:
                yield os.path.join(d, f)
    yield os.path.join(HERE, "build.sbt")
    yield os.path.join(HERE, "project", "build.properties")


def cached_classpath():
    if not os.path.exists(CLASSPATH_FILE):
        return None
    built = os.path.getmtime(CLASSPATH_FILE)
    if any(os.path.getmtime(f) > built for f in sources()):
        return None
    with open(CLASSPATH_FILE) as fh:
        cp = fh.read().strip()
    if not cp or not all(os.path.exists(p) for p in cp.split(os.pathsep)):
        return None
    return cp


def spark_home():
    """$SPARK_HOME, else the Spark distribution whose bin/ on PATH holds
    spark-submit next to a jars/ directory."""
    homes = [os.environ.get("SPARK_HOME", "")] + [
        os.path.dirname(os.path.realpath(d))
        for d in os.environ.get("PATH", "").split(os.pathsep)
        if d and os.path.isfile(os.path.join(d, "spark-submit"))]
    for home in homes:
        if home and os.path.isdir(os.path.join(home, "jars")):
            return home
    fail("Spark jars not found: set SPARK_HOME or put Spark's bin/ on PATH")


def build():
    env = dict(os.environ)
    env["SPARK_HOME"] = spark_home()
    env.setdefault("COURSIER_MODE", "offline")
    if "SBT_OPTS" not in env:
        opts = ["-Dsbt.override.build.repos=true", "-Dsbt.offline=true"]
        repos = os.path.expanduser("~/.sbt/repositories")
        if os.path.exists(repos):
            opts.append(f"-Dsbt.repository.config={repos}")
        env["SBT_OPTS"] = " ".join(opts)
    # sbt's per-user state (global base, server socket) goes under
    # .bench_build too; the launcher and the offline dependency cache are
    # only read.
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           f"-Dsbt.global.base={os.path.join(BUILD, 'sbt-global')}",
           "compile", "export Runtime/fullClasspath"]
    t0 = time.time()
    try:
        res = subprocess.run(cmd, cwd=HERE, env=env, stdin=subprocess.DEVNULL,
                             stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                             text=True, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed to run: {e}")
    lines = [ln.strip() for ln in res.stdout.splitlines() if ln.strip()]
    cp = lines[-1] if lines else ""
    if res.returncode != 0 or ".jar" not in cp or cp.startswith("["):
        sys.stderr.write(res.stdout)
        fail(f"build failed (exit {res.returncode})")
    os.makedirs(BUILD, exist_ok=True)
    with open(CLASSPATH_FILE, "w") as fh:
        fh.write(cp)
    print(f"[perfbench] built in {time.time() - t0:.1f}s", file=sys.stderr)
    return cp


def main():
    if not os.path.isfile(os.path.join(PROGRAM_SRC, "repro", "core", "BClean.scala")):
        fail(f"program sources not found under {PROGRAM_SRC}; run from a full checkout")
    cp = cached_classpath() or build()
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = (["java"] + JAVA_MODULE_OPTS + JAVA_HEAP_OPTS +
           [f"-Djava.io.tmpdir={tmp}", "-cp", cp, "perfbench.Main"] + sys.argv[1:])
    try:
        res = subprocess.run(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                             stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S}s")
    lines = res.stdout.splitlines()
    if res.returncode != 0 or not lines:
        sys.stderr.write(res.stdout)
        fail(f"run failed (exit {res.returncode})")
    try:
        json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(res.stdout)
        fail("run printed no JSON result")
    sys.stdout.write(res.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
