"""Run child processes one at a time and measure each on its own.

Resources come from ``os.wait4`` on the child's pid, so ``ru_maxrss`` is
that child's peak. ``getrusage(RUSAGE_CHILDREN)`` would instead give the
running maximum over every child reaped so far.

Linux also carries the spawning process's peak RSS into a child's
``ru_maxrss`` across exec. The benchmark process grows while it
generates inputs and checks outputs, so children are started from a
small helper interpreter (``Launcher``) instead. The helper is this file
run as a script: it reads one JSON request a line on stdin and answers
each with one JSON line on stdout. It is a plain ``subprocess`` child,
not a ``multiprocessing`` one, because the ``spawn`` start method also
starts a resource-tracker process that nobody waits for.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass(frozen=True)
class ChildResult:
    exit_code: int
    wall_s: float
    peak_rss_mb: float
    timed_out: bool


def python_env(src: Path) -> dict[str, str]:
    """The environment for a child that imports basketminer from ``src``
    without an install."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def run_child(args: list[str], env: dict[str, str], stdout: Path,
              stderr: Path, timeout_s: float) -> ChildResult:
    """Run ``sys.executable`` with ``args``, stdout and stderr to files.

    The wall time spans spawn to reap. A child still running after
    ``timeout_s`` is killed and reported as timed out.
    """
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], env=env,
                                stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err)
        watchdog = threading.Timer(timeout_s, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
            watchdog.join()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    # Linux reports ru_maxrss in KiB.
    return ChildResult(proc.returncode, wall, usage.ru_maxrss / 1024,
                       timed_out=proc.returncode < 0 and wall >= timeout_s)


def _exit(signum, frame):
    raise SystemExit(1)


def exit_on_sigterm() -> None:
    """Turn SIGTERM into SystemExit, so ``with`` blocks and ``run_child``
    unwind and stop the processes they started."""
    signal.signal(signal.SIGTERM, _exit)


def _serve() -> None:
    exit_on_sigterm()
    for line in sys.stdin:
        request = json.loads(line)
        result = run_child(request["args"], request["env"],
                           Path(request["stdout"]), Path(request["stderr"]),
                           request["timeout_s"])
        print(json.dumps(asdict(result)), flush=True)


class Launcher:
    """``run_child`` in a fresh helper interpreter; use as a context
    manager, which stops the helper and waits for it on exit."""

    def __enter__(self) -> "Launcher":
        self._helper = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def run(self, args: list[str], env: dict[str, str], stdout: Path,
            stderr: Path, timeout_s: float) -> ChildResult:
        request = {"args": args, "env": env, "stdout": str(stdout),
                   "stderr": str(stderr), "timeout_s": timeout_s}
        self._helper.stdin.write(json.dumps(request) + "\n")
        self._helper.stdin.flush()
        line = self._helper.stdout.readline()
        if not line:
            raise RuntimeError("launcher helper exited early")
        return ChildResult(**json.loads(line))

    def __exit__(self, exc_type, exc, traceback) -> None:
        helper = self._helper
        try:
            if exc_type is None:
                helper.stdin.close()
                helper.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            pass
        finally:
            if helper.poll() is None:
                helper.terminate()
                try:
                    helper.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    helper.kill()
                    helper.wait()
            for stream in (helper.stdin, helper.stdout):
                try:
                    stream.close()
                except OSError:
                    pass


if __name__ == "__main__":
    _serve()
