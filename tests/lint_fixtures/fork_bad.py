"""True-positive fixture for the fork-safety rule.

``run`` ships a ``LeakyHolder`` (which holds a database connection)
through a process pool; ``spawn`` hands a ``SpawnLeaky`` (an open file
handle) to a ``Process`` target and also spawns a lambda;
``push_scope`` mutates a module-level scope stack outside any context
manager.
"""
import sqlite3
from concurrent.futures import ProcessPoolExecutor

_SCOPES: list[object] = []


class LeakyHolder:
    def __init__(self, path: str) -> None:
        self.conn = sqlite3.connect(path)


def work(holder: "LeakyHolder") -> int:
    return 0


def run() -> None:
    with ProcessPoolExecutor() as pool:
        pool.submit(work, LeakyHolder("x.db"))


def push_scope() -> None:
    _SCOPES.append(object())


class SpawnLeaky:
    """Holds an open handle shipped through a Process target."""

    def __init__(self, path: str) -> None:
        self.log = open(path)


def spawned_work(holder: "SpawnLeaky") -> int:
    return 0


def spawn() -> None:
    import multiprocessing

    multiprocessing.Process(
        target=spawned_work, args=(SpawnLeaky("z.txt"),)
    ).start()
    multiprocessing.Process(target=lambda: None).start()
