#!/usr/bin/env python3
"""End-to-end benchmark of balgd: build from source, then one run.

Run from the root of a source checkout:

    python3 e2ebench/run.py --workload small_read --seed 1 --seconds 20 --trace 0

Builds bin/balgd.exe and e2ebench/balgbench.exe with dune (output to
stderr), then runs balgbench, whose last stdout line is the JSON result.
Scratch files go to .bench_work/<workload>/ in the checkout.
"""

import glob
import os
import shutil
import signal
import subprocess
import sys

RUN_TIMEOUT_S = 175


def find_dune():
    dune = shutil.which("dune")
    if dune:
        return dune
    prefixes = [os.environ.get("OPAM_SWITCH_PREFIX", "")]
    prefixes += sorted(glob.glob(os.path.expanduser("~/.opam/*")))
    for prefix in prefixes:
        if prefix and os.path.isfile(os.path.join(prefix, "bin", "dune")):
            return os.path.join(prefix, "bin", "dune")
    return None


def workload_of(argv):
    for i, a in enumerate(argv[:-1]):
        if a == "--workload":
            return argv[i + 1]
    return None


def main(argv):
    if not (os.path.isfile("dune-project") and os.path.isfile(os.path.join("bin", "balgd.ml"))):
        print("run.py: run from the root of a balg source checkout", file=sys.stderr)
        return 2
    workload = workload_of(argv)
    if not workload or not workload.replace("_", "").isalnum():
        print("run.py: --workload NAME is required", file=sys.stderr)
        return 2
    dune = find_dune()
    if dune is None:
        print("run.py: dune not found", file=sys.stderr)
        return 2
    # the compilers sit beside dune in its opam switch
    path = os.path.dirname(dune) + os.pathsep + os.environ.get("PATH", "")
    env = dict(os.environ, DUNE_CACHE="disabled", PATH=path)
    build = subprocess.run(
        [dune, "build", "--root", ".", "./bin/balgd.exe", "./e2ebench/balgbench.exe"],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1
    work = os.path.join(".bench_work", workload)
    os.makedirs(".bench_work", exist_ok=True)
    cmd = [
        os.path.join("_build", "default", "e2ebench", "balgbench.exe"),
        *argv,
        "--balgd",
        os.path.join("_build", "default", "bin", "balgd.exe"),
        "--work",
        work,
    ]
    # its own process group, so a timeout also stops the servers it spawned
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 1
    except KeyboardInterrupt:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
