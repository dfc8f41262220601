#!/usr/bin/env python3
"""Run the repository benchmark on one workload.

    python3 perfbench/run.py --workload backlog --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run builds the benchmark with sbt
(offline) from the repository's main sources plus perfbench/src, and runs
the benchmark's self-tests; later runs reuse the build while a stamp says
the compiled classes come from the current sources. Build outputs, the sbt
state and span files go to .bench_build/.
The benchmark's report goes to stdout; its last line is one JSON object
with the keys correct, attempted, failed and metrics.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
# Every build compiles into the same sbt target directory, so the stamp names
# the sources of the classes that are there now: the digest and classpath of
# the last successful build.
STAMP = os.path.join(BUILD, "build-stamp.json")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# The schedule log keeps every record alive until the audit. A fixed,
# pre-touched heap and the parallel collector promoting survivors at once
# keep collection pauses short and alike from run to run.
JVM_OPTS = ["-Xms3g", "-Xmx3g", "-Xmn1g", "-XX:+AlwaysPreTouch", "-XX:+UseParallelGC",
            "-XX:-UseAdaptiveSizePolicy", "-XX:MaxTenuringThreshold=0"]


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def source_files():
    """Every file whose content the build depends on, sorted."""
    files = [os.path.join(HERE, "build.sbt"),
             os.path.join(HERE, "project", "build.properties")]
    for top in (os.path.join(ROOT, "src", "main"), os.path.join(HERE, "src")):
        for d, _, names in os.walk(top):
            files += [os.path.join(d, n) for n in names]
    return sorted(files)


def digest():
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()[:20]


def run(cmd, timeout, cwd=ROOT, env=None, stdout=None):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=stdout, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log(f"{cmd[0]} did not finish within {timeout}s; killed")
        sys.exit(3)
    return proc.returncode, out


def build():
    """Compile, self-test and return the runtime classpath, reusing it only
    while the classes on it were compiled from the current sources."""
    want = digest()
    try:
        with open(STAMP) as fh:
            stamp = json.load(fh)
    except (OSError, ValueError):
        stamp = {}
    if stamp.get("digest") == want and stamp.get("classpath"):
        return stamp["classpath"]
    os.makedirs(BUILD, exist_ok=True)
    # The build rewrites the shared classes; until it succeeds, no stamp may
    # vouch for them.
    if os.path.exists(STAMP):
        os.remove(STAMP)
    env = dict(os.environ)
    # Resolve only from the local caches; never reach for the network.
    env["COURSIER_MODE"] = "offline"
    env["SBT_OPTS"] = " ".join([
        env.get("SBT_OPTS", ""),
        "-Dsbt.offline=true",
        "-Dsbt.global.base=" + os.path.join(BUILD, "sbt-global"),
    ]).strip()
    log("building (sbt compile, self-tests, classpath)")
    code, out = run(["sbt", "--batch", "-Dsbt.log.noformat=true", "compile", "test",
                     "export Runtime/fullClasspath"],
                    BUILD_TIMEOUT_S, cwd=HERE, env=env, stdout=subprocess.PIPE)
    # sbt logs with a "[level]" prefix; the exported classpath is the last
    # line without one.
    lines = out.splitlines()
    plain = [i for i, l in enumerate(lines) if l.strip() and not l.startswith("[")]
    cp = lines[plain[-1]].strip() if code == 0 and plain else None
    sys.stderr.write("\n".join(l for l in lines if l.strip() != cp) + "\n")
    if cp is None:
        log(f"build failed (sbt exit {code})")
        sys.exit(code or 1)
    tmp = STAMP + ".tmp"
    with open(tmp, "w") as fh:
        json.dump({"digest": want, "classpath": cp}, fh)
    os.replace(tmp, STAMP)
    return cp


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    a = ap.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "src", "main", "scala")):
        log(f"the repository sources (src/main/scala) are missing under {ROOT}")
        sys.exit(2)
    cp = build()
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") \
        if os.environ.get("JAVA_HOME") else "java"
    spans = os.path.join(BUILD, "spans", f"{a.workload}-seed{a.seed}.json")
    code, out = run([java, *JVM_OPTS, "-cp", cp, "perfbench.Main",
                     "--workload", a.workload, "--seed", str(a.seed),
                     "--seconds", str(a.seconds), "--trace", a.trace,
                     "--spans", spans],
                    RUN_TIMEOUT_S, stdout=subprocess.PIPE)
    lines = out.rstrip("\n").splitlines()
    for l in lines[:-1]:
        print(l)
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            print(lines[-1])
    if result is None:
        log(f"the benchmark printed no result (exit {code})")
        sys.exit(code or 1)
    print(json.dumps(result), flush=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
