"""Starts the measured commands from a small helper process.

A child inherits the resident-set high-water mark of the process it was
started from: Linux records the parent's peak RSS in the child's
``ru_maxrss`` when the child execs.  The benchmark process holds numpy,
the package under test and whole artifacts, so a command it started
itself could report the benchmark's RSS instead of its own.  The helper
(this file, run as a script) stays small and starts every measured
command, so each reported peak is the command's own.

Protocol: one JSON request per line on the helper's stdin, one JSON reply
per line on its stdout.  Standard library only.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path


def serve() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(req["argv"], env=req["env"], stdout=out,
                                    stderr=err)
            killer = threading.Timer(req["timeout"], proc.kill)
            killer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            killer.cancel()
            killer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"code": proc.returncode, "wall_s": wall,
                          "maxrss_kib": usage.ru_maxrss}), flush=True)


class Launcher:
    """Client side: ``run`` starts one command through the helper and
    waits for it.  Use as a context manager so the helper is stopped."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(Path(__file__))],
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], env: dict, stdout: Path, stderr: Path,
            timeout: float) -> tuple[int, float, int]:
        """Returns (exit code, wall seconds from spawn to wait4, peak RSS
        in KiB).  A command still running after ``timeout`` is killed."""
        request = {"argv": argv, "env": env, "stdout": str(stdout),
                   "stderr": str(stderr), "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher helper exited")
        data = json.loads(reply)
        return data["code"], data["wall_s"], data["maxrss_kib"]

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


if __name__ == "__main__":
    serve()
