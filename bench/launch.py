"""Run one command and report its wall time and its own rusage.

    python3 -I -S bench/launch.py FD COMMAND...

Writes "status wall_s cpu_s maxrss_kb" to file descriptor FD after the
command exits.  The command's stdin, stdout and stderr are this process's.

Linux gives a new process the resident size of the process that forked it
as the starting value of its ru_maxrss, so a command spawned straight from
the benchmark (about 20 MB of interpreter and modules) could never read
below that.  This launcher is an isolated interpreter without `site`
(about 8 MB), so the peak RSS it reports is the command's own.
"""

import os
import sys
import time

fd, cmd = int(sys.argv[1]), sys.argv[2:]
started = time.perf_counter()
pid = os.fork()
if pid == 0:
    try:
        os.execvp(cmd[0], cmd)
    finally:
        os._exit(127)
_, status, usage = os.wait4(pid, 0)
wall_s = time.perf_counter() - started
os.write(fd, f"{status} {wall_s!r} {usage.ru_utime + usage.ru_stime!r} {usage.ru_maxrss}".encode())
