"""Start the benchmark's commands from a small process.

The max RSS that ``wait4`` reports for a child includes the memory of the
process that forked it, up to the child's ``exec``.  The benchmark holds
numpy and the oracles' tables, so it starts commands through this process,
which imports only the standard library.

Protocol: one JSON request per line on stdin,
``{"argv": [...], "cwd": str, "env": {...}, "timeout": seconds}``, and one
JSON reply per line on stdout, ``{"wall_s", "rss_mb", "code"}``.  The
command's stdout is discarded and its stderr goes to ``stderr.txt`` in cwd.
The process exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(argv: list, cwd: str, env: dict, timeout: float) -> dict:
    with open(os.path.join(cwd, "stderr.txt"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err
        )
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024, "code": proc.returncode}


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        reply = run(request["argv"], request["cwd"], request["env"], request["timeout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
