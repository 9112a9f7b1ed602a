"""Starts the CLI processes of the cli-cold workload and times them.

A child started from the worker would share the worker's memory until it
runs the new program, and its peak RSS would count the worker's numpy
pages. This process imports no numpy, so the peak RSS that wait4 reports
for each child is the child's own (plus this process's few MB).

It reads one JSON request per line on stdin, {"cmd": [...], "env": {...},
"stderr": path}, and answers each with one JSON line on stdout:
{"wall": seconds, "returncode": n, "maxrss_kb": k}.
"""

import json
import os
import sys
import time


def main():
    for line in sys.stdin:
        request = json.loads(line)
        cmd = request["cmd"]
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
            (os.POSIX_SPAWN_OPEN, 2, request["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(cmd[0], cmd, request["env"], file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
        reply = {"wall": wall, "returncode": os.waitstatus_to_exitcode(status), "maxrss_kb": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
