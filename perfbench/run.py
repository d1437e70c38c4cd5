#!/usr/bin/env python3
"""Build the perfbench benchmark from source and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload gradesheet --seed 1 --seconds 10 --trace 0

The Go build cache, the binary and the traced run's spans all stay under
.bench_build/perfbench in the checkout. Every argument is passed through
to the benchmark binary, which prints its result as the last line of
standard output; the exit code is the binary's, or the build's if the
build fails.
"""
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "perfbench")


def revision():
    """The git commit, or a digest of the Go sources when not in git."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if d not in (".git", ".bench_build"))
        for name in sorted(filenames):
            if name.endswith(".go") or name == "go.mod":
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def arg(args, name):
    for i, a in enumerate(args[:-1]):
        if a in ("-" + name, "--" + name):
            return args[i + 1]
    return None


def main():
    args = sys.argv[1:]
    os.makedirs(OUT, exist_ok=True)
    env = dict(os.environ,
               GOCACHE=os.path.join(OUT, "gocache"),
               GOMODCACHE=os.path.join(OUT, "gomodcache"),
               GOPATH=os.path.join(OUT, "gopath"),
               # The go command keeps its config and telemetry counters
               # under the user config directory; keep them in the checkout.
               XDG_CONFIG_HOME=os.path.join(OUT, "config"),
               GOTOOLCHAIN="local",
               GOFLAGS="",
               CGO_ENABLED="0")
    binary = os.path.join(OUT, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=BENCH, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    cmd = [binary] + args + ["--commit", revision()]
    if arg(args, "trace") == "1":
        spans = "spans-%s-%s.jsonl" % (arg(args, "workload"), arg(args, "seed"))
        cmd += ["--spans", os.path.join(OUT, spans)]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
