#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload suite-explicit --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The benchmark is not part of the repository's dune project: perfbench/
holds no dune files, so `dune build` and `dune runtest` at the root never
see it. Instead this script mirrors dune-project, lib/ and perfbench/
into .bench_build/ws, adds the benchmark's dune stanzas there, and builds
that workspace (release profile, dune cache off), so a run reads and
writes only inside the checkout. Arguments pass through to main.exe; its
last line of output is the result object. --selftest builds and runs the
tests of the benchmark's own logic (perfbench/test) instead.
"""

import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
WORKSPACE = os.path.join(BUILD_DIR, "ws")
MIRRORED = ["dune-project", "lib", "perfbench"]

# The benchmark's dune stanzas, written into the workspace only.
DUNE_FILES = {
    "perfbench/dune": """\
(executable
 (name main)
 (libraries perfbench cgcm_core cgcm_progs cgcm_interp cgcm_serve
  cgcm_support unix))
""",
    "perfbench/src/dune": """\
(library
 (name perfbench)
 (libraries cgcm_core cgcm_progs cgcm_frontend cgcm_ir cgcm_interp
  cgcm_gpusim cgcm_runtime cgcm_analysis cgcm_transform cgcm_serve
  cgcm_support unix))
""",
    "perfbench/test/dune": """\
(test
 (name test_perfbench)
 (libraries perfbench alcotest threads.posix unix cgcm_core cgcm_interp
  cgcm_serve))
""",
}


def source_files():
    """Relative paths of the files to mirror, and the bytes to write."""
    files = {}
    for top in MIRRORED:
        if os.path.isfile(top):
            files[top] = None
            continue
        for root, dirs, names in os.walk(top):
            dirs[:] = sorted(d for d in dirs if not d.startswith((".", "_")))
            for n in names:
                if not n.startswith("."):
                    files[os.path.join(root, n)] = None
    for path, text in DUNE_FILES.items():
        files[path] = text.encode()
    return files


def stage():
    """Make the workspace mirror the sources; rewrite changed files only,
    so dune rebuilds only what changed, and drop files gone from them."""
    files = source_files()
    for rel, data in files.items():
        if data is None:
            with open(rel, "rb") as f:
                data = f.read()
        dst = os.path.join(WORKSPACE, rel)
        try:
            with open(dst, "rb") as f:
                if f.read() == data:
                    continue
        except OSError:
            os.makedirs(os.path.dirname(dst) or ".", exist_ok=True)
        with open(dst, "wb") as f:
            f.write(data)
    for top in MIRRORED:
        for root, dirs, names in os.walk(os.path.join(WORKSPACE, top)):
            rel_root = os.path.relpath(root, WORKSPACE)
            for d in list(dirs):
                if not os.path.isdir(os.path.join(rel_root, d)):
                    shutil.rmtree(os.path.join(root, d))
                    dirs.remove(d)
            for n in names:
                if os.path.join(rel_root, n) not in files:
                    os.remove(os.path.join(root, n))


def dune(*args):
    env = dict(os.environ, DUNE_CACHE="disabled")
    return subprocess.run(
        ["dune", "build", "--root", WORKSPACE, "--profile", "release", "--display", "quiet"]
        + list(args),
        env=env, stdout=sys.stderr).returncode


def main() -> int:
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the root of the repository (no dune-project or lib/ here)",
              file=sys.stderr)
        return 2
    stage()
    if sys.argv[1:] == ["--selftest"]:
        return dune("@perfbench/test/runtest", "--force")
    if dune("./perfbench/main.exe") != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(WORKSPACE, "_build", "default", "perfbench", "main.exe")
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
