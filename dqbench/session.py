"""The benchmark's Ray session and the /proc view of its process tree.

``RaySession`` starts one local Ray session at the host's width and, on
stop, ends every process the session ever had. ``Monitor`` is the one
thread the driver adds: it samples the session's process tree (CPU
ticks, private RSS) and is the per-op watchdog.
"""

from __future__ import annotations

import _thread
import os
import shutil
import signal
import subprocess
import tempfile
import threading
import time

CLK_TCK = os.sysconf("SC_CLK_TCK")
PAGE = os.sysconf("SC_PAGE_SIZE")
OBJECT_STORE_BYTES = 512 << 20
# AF_UNIX socket paths are capped at 107 bytes; Ray adds ~63 characters
# (session_<date>_<pid>/sockets/plasma_store) to its temp dir
_SOCKET_SUFFIX = 63
_SOCKET_LIMIT = 107


def host_width() -> int:
    """What ``nproc`` prints: the CPUs this process may run on, as
    limited by ``OMP_NUM_THREADS`` / ``OMP_THREAD_LIMIT`` when set."""
    try:
        out = subprocess.run(["nproc"], capture_output=True, text=True,
                             check=True, timeout=10).stdout
        return int(out.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return len(os.sched_getaffinity(0))


def _stat_fields(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat") as f:
            s = f.read()
    except OSError:
        return None
    return s[s.rindex(")") + 2:].split()


def _children() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            st = _stat_fields(int(name))
            if st is not None:
                kids.setdefault(int(st[1]), []).append(int(name))
    return kids


def tree_pids(root: int) -> list[int]:
    """``root`` and all its descendants."""
    kids = _children()
    out = [root]
    i = 0
    while i < len(out):
        out.extend(kids.get(out[i], ()))
        i += 1
    return out


def sample(pid: int) -> tuple[int, int, int] | None:
    """(start time, CPU ticks, private RSS bytes) of ``pid``, or None if
    it is gone. Private RSS is resident minus shared pages, so the object
    store's shared mapping is not counted."""
    st = _stat_fields(pid)
    if st is None or st[0] == "Z":
        return None
    try:
        with open(f"/proc/{pid}/statm") as f:
            statm = f.read().split()
    except OSError:
        return None
    private = (int(statm[1]) - int(statm[2])) * PAGE
    return int(st[19]), int(st[11]) + int(st[12]), private


def cpu_stat() -> list[int]:
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:]]


def steal_share(before: list[int], after: list[int]) -> float:
    d = [b - a for a, b in zip(before, after)]
    total = sum(d[:8])
    return d[7] / total if total > 0 else 0.0


def busy_steal_share(before: list[int], after: list[int]) -> float:
    """Steal as a share of the CPU time this machine's processes wanted
    (all but idle and iowait): what the hypervisor took of it."""
    d = [b - a for a, b in zip(before, after)]
    busy = sum(d[:8]) - d[3] - d[4]
    return d[7] / busy if busy > 0 else 0.0


class Monitor(threading.Thread):
    """Samples the session tree every ``period`` s. Between
    ``begin_op`` and ``end_op`` it tracks the op's CPU and peak summed
    private RSS, and interrupts the main thread once if the op outlives
    its deadline."""

    def __init__(self, root: int, period: float = 0.1):
        super().__init__(daemon=True, name="dqbench-monitor")
        self.root, self.period = root, period
        self.lock = threading.Lock()
        self.stop_event = threading.Event()
        self.seen: dict[tuple[int, int], int] = {}   # (pid, start) -> ticks
        self.base: dict[tuple[int, int], int] = {}
        self.stat0: list[int] = []
        self.peak = 0
        self.deadline: float | None = None
        self.timed_out = False
        self._pids: list[int] = [root]
        self._rescan_at = 0.0

    def _scan(self, rescan: bool) -> int:
        now = time.monotonic()
        if rescan or now >= self._rescan_at:
            self._pids = tree_pids(self.root)
            self._rescan_at = now + 1.0
        rss = 0
        for pid in self._pids:
            s = sample(pid)
            if s is not None:
                self.seen[(pid, s[0])] = s[1]
                rss += s[2]
        return rss

    def run(self) -> None:
        while not self.stop_event.wait(self.period):
            with self.lock:
                rss = self._scan(False)
                self.peak = max(self.peak, rss)
                if (self.deadline is not None and not self.timed_out
                        and time.monotonic() > self.deadline):
                    self.timed_out = True
                    _thread.interrupt_main()

    def begin_op(self, timeout: float) -> None:
        with self.lock:
            self.peak = self._scan(True)
            self.base = dict(self.seen)
            self.stat0 = cpu_stat()
            self.timed_out = False
            self.deadline = time.monotonic() + timeout

    def end_op(self) -> tuple[float, float, float]:
        """(CPU seconds of the tree since ``begin_op``, peak MB, busy
        steal share over the op)."""
        with self.lock:
            self.deadline = None
            self.peak = max(self.peak, self._scan(True))
            ticks = sum(v - self.base.get(k, 0) for k, v in self.seen.items())
            return (ticks / CLK_TCK, self.peak / (1 << 20),
                    busy_steal_share(self.stat0, cpu_stat()))

    def known(self) -> set[tuple[int, int]]:
        with self.lock:
            return set(self.seen)

    def close(self) -> None:
        self.stop_event.set()
        self.join()


def _ray_temp_dir(checkout: str) -> str:
    """A Ray temp dir inside the checkout when its socket paths fit,
    else a fresh short dir under /tmp. Either is removed at stop."""
    local = os.path.join(checkout, ".dqr")
    if len(local) + _SOCKET_SUFFIX <= _SOCKET_LIMIT:
        return local
    return tempfile.mkdtemp(prefix="dqr", dir="/tmp")


class RaySession:
    """One local Ray session at ``num_cpus``; ``stop`` ends every process
    the session had and waits until each is gone."""

    def __init__(self, checkout: str, num_cpus: int):
        self.checkout, self.num_cpus = checkout, num_cpus
        self.temp_dir = ""
        self.monitor: Monitor | None = None

    def start(self) -> None:
        import ray
        from ray.data import DataContext

        # workers import the program from the checkout whatever the
        # driver's cwd; they inherit the environment through the raylet
        path = os.environ.get("PYTHONPATH", "")
        if self.checkout not in path.split(os.pathsep):
            os.environ["PYTHONPATH"] = os.pathsep.join(
                p for p in (self.checkout, path) if p)
        os.environ.setdefault("RAY_USAGE_STATS_ENABLED", "0")
        self.temp_dir = _ray_temp_dir(self.checkout)
        ray.init(address="local", num_cpus=self.num_cpus,
                 include_dashboard=False, logging_level="ERROR",
                 log_to_driver=False,
                 object_store_memory=OBJECT_STORE_BYTES,
                 _temp_dir=self.temp_dir)
        DataContext.get_current().enable_progress_bars = False
        self.monitor = Monitor(os.getpid())
        self.monitor.start()

    def stop(self) -> None:
        """Kill the session's processes (nothing in them outlives a run),
        then reset the driver's Ray state."""
        import ray

        me = os.getpid()
        procs = {(p, s[0]) for p in tree_pids(me)[1:]
                 if (s := sample(p)) is not None}
        if self.monitor is not None:
            procs |= self.monitor.known()
            self.monitor.close()
            self.monitor = None
        _kill_and_wait({p for p in procs if p[0] != me})
        ray.shutdown()
        if self.temp_dir:
            shutil.rmtree(self.temp_dir, ignore_errors=True)


def _alive(pid: int, start: int) -> bool:
    s = sample(pid)
    return s is not None and s[0] == start


def _kill_and_wait(procs: set[tuple[int, int]], timeout: float = 20.0) -> None:
    """SIGKILL every (pid, start) still alive, reap our own children,
    and wait until none is left."""
    deadline = time.monotonic() + timeout
    while True:
        live = [p for p in procs if _alive(*p)]
        for pid, _ in live:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        try:
            while os.waitpid(-1, os.WNOHANG)[0] > 0:
                pass
        except ChildProcessError:
            pass
        if not live:
            return
        if time.monotonic() > deadline:
            raise RuntimeError(f"session processes did not exit: {live}")
        time.sleep(0.02)
