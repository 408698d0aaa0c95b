"""Run one command; report its exit code, wall time and peak RSS.

    python3 -I -S bench/launch.py TIMEOUT_S CWD ARGV...

The command runs in CWD with its stdout and stderr in CWD/stdout.txt and
CWD/stderr.txt.  The last line printed is one JSON object: `code` (None
when the command was killed at the time limit), `wall_s` from spawn to
exit, and `rss_kb` from wait4 on the command alone.

This process stays small on purpose.  Linux carries the peak RSS of the
process that spawns a command into the command's ru_maxrss, so spawning
from the benchmark process, which grows while it checks outputs, would
report the benchmark's peak instead of the command's.
"""

import json
import os
import signal
import sys
import time


def main(argv) -> int:
    timeout, cwd, cmd = float(argv[0]), argv[1], argv[2:]
    os.chdir(cwd)
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, "stdout.txt", flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, "stderr.txt", flags, 0o644),
    ]
    state = {"exited": False, "killed": False, "terminated": False}
    start = time.perf_counter()
    pid = os.posix_spawn(cmd[0], cmd, os.environ, file_actions=actions)

    def stop(signum, frame):
        # the command is not reaped before `exited` is set, so its pid
        # cannot have been reused
        if not state["exited"]:
            os.kill(pid, signal.SIGKILL)
            state["killed"] = True
        state["terminated"] |= signum == signal.SIGTERM

    signal.signal(signal.SIGALRM, stop)
    signal.signal(signal.SIGTERM, stop)
    signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.001))
    os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
    signal.setitimer(signal.ITIMER_REAL, 0)
    state["exited"] = True
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    if state["terminated"]:
        return 143
    killed = state["killed"] and os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL
    code = None if killed else os.waitstatus_to_exitcode(status)
    print(json.dumps({"code": code, "wall_s": wall, "rss_kb": usage.ru_maxrss}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
