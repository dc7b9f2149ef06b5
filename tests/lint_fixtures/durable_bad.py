"""True-positive fixture for the durable-write rule.

Both functions rename over a published file outside
``repro.experiments.persistence._durable_replace``: one never fsyncs,
one fsyncs on a single branch only. Each rename must be flagged.
"""
import os


def unsafe_publish(path: str, text: str) -> None:
    """No fsync at all."""
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        handle.write(text)
    os.replace(tmp, path)


def branchy_publish(path: str, text: str, quick: bool) -> None:
    """fsync on only one path: restating the protocol invites this."""
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        handle.write(text)
        if not quick:
            os.fsync(handle.fileno())
    os.replace(tmp, path)
    os.fsync(os.open(path, os.O_RDONLY))
