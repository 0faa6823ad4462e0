"""Run one command; print its exit code, wall time and peak RSS as JSON.

Usage: ``spawn.py TIMEOUT_S STDOUT STDERR CWD PROGRAM [ARG ...]``

On exec, Linux raises a process's ``ru_maxrss`` to the peak RSS of the
process that spawned it.  The benchmark holds its inputs in memory, so it
starts each hyf command through this small stdlib-only process: the peak RSS
reported here then belongs to the command alone.  The command is killed
after ``TIMEOUT_S`` seconds.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> None:
    timeout, out_path, err_path, cwd, *command = sys.argv[1:]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(command, stdout=out, stderr=err, cwd=cwd)
        timer = threading.Timer(float(timeout), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        seconds = time.perf_counter() - start
    print(json.dumps({"code": proc.returncode, "seconds": seconds,
                      "rss_mib": usage.ru_maxrss / 1024.0}))


if __name__ == "__main__":
    main()
