"""Runs commands for run.py and reports each one's exit code, wall time and peak RSS.

A forked child's `ru_maxrss` includes every page its parent had resident at
the fork, so children forked straight from the benchmark process would
report the benchmark's own memory. This launcher stays small and forks the
commands instead, so their peak RSS is their own (plus this process's few MB).

Protocol: one JSON request per stdin line, {"argv": [...], "log": path,
"timeout": seconds}; one JSON reply per stdout line, {"code", "wall", "rss_mb"}.
It exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import time


def run(argv: list, log: str, timeout: float) -> dict:
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT)
        try:
            # Poll (1 ms resolution) so a hung command is killed, not waited on forever.
            while not (waited := os.wait4(proc.pid, os.WNOHANG))[0]:
                if time.perf_counter() - start > timeout:
                    proc.kill()
                    out.write(f"\nkilled after {timeout} s\n".encode())
                time.sleep(0.001)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    _, status, usage = waited
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "wall": wall, "rss_mb": usage.ru_maxrss / 1024}


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        print(json.dumps(run(request["argv"], request["log"], request["timeout"])), flush=True)


if __name__ == "__main__":
    main()
