"""Runs CLI ops from a small process, so that each op's peak RSS is its own.

A child's peak RSS (``ru_maxrss``) starts at its parent's RSS at the
moment it is spawned.  Spawned from the benchmark process, which holds
the run's bookkeeping, the ops would report that process's size.  This
process stays small: it reads one JSON argument list per line on stdin,
runs ``python -m sailcost.cli`` with it, and answers one JSON line with
the exit code, seconds, stdout and stderr.  At the end of its input it
answers the peak RSS of its children and its own, then exits.  Its own
peak is the floor of its children's.

    python3 bench/launch.py TIMEOUT_S
"""

import base64
import json
import resource
import subprocess
import sys
import time


def _b64(data):
    return base64.b64encode(data).decode("ascii")


def _own_peak_kb():
    """This process's own peak RSS.  ``ru_maxrss`` of RUSAGE_SELF would
    start at the benchmark process's size, for the reason above."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def main():
    timeout = float(sys.argv[1])
    for line in sys.stdin:
        argv = json.loads(line)
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "sailcost.cli", *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            err += f"\ntimed out after {timeout:g} s".encode()
        seconds = time.perf_counter() - start
        reply = {"rc": proc.returncode, "seconds": seconds, "stdout": _b64(out), "stderr": _b64(err)}
        print(json.dumps(reply), flush=True)
    print(json.dumps({
        "children_maxrss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        "self_peak_kb": _own_peak_kb(),
    }), flush=True)


if __name__ == "__main__":
    main()
