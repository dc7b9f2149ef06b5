"""True-positive fixture for the screen-soundness rule.

Each function stores a bound entry without the ``@bound_producer``
tag: an ``("lp", ...)`` screen as a literal and through a local, and a
decided ``("interval", lb, ub)`` behind a conditional expression.
"""


class FakeCache:
    def put(self, key: str, value: object) -> None:
        self.last = (key, value)


def untagged_screen(cache: FakeCache, key: str) -> None:
    cache.put(key, ("lp", 1.0))


def untagged_screen_via_local(cache: FakeCache, key: str) -> None:
    entry = ("lp", 2.0)
    cache.put(key, entry)


def untagged_decision(cache: FakeCache, key: str, lower: object) -> None:
    entry = ("lp", 3.0) if lower is None else ("interval", lower, 3.0)
    cache.put(key, entry)
