"""Fixture scheduler loop: the one sanctioned clock writer, plus rogues.

``MiniLoop.run`` is the fixture registry's one clock writer;
``EagerPolicy`` both calls a clock mutator directly and aliases one — each
a ``sharding.clock-discipline`` violation — and ``HandRolledLoop`` moves
time by storing to the clock's fields, which no mutator name gives away.
"""


class MiniLoop:
    def __init__(self, clock) -> None:
        self.clock = clock

    def run(self, steps: int) -> None:
        for _ in range(steps):
            self.clock.advance(1.0)


class EagerPolicy:
    def __init__(self, clock) -> None:
        self.clock = clock

    def decide(self) -> None:
        self.clock.wait_until(5.0)  # LINT: rogue-clock-write

    def grab(self):
        hop = self.clock.advance  # LINT: rogue-clock-alias
        return hop


class HandRolledLoop:
    def __init__(self, clock) -> None:
        self.clock = clock

    def charge_inline(self, seconds: float) -> float:
        clock = self.clock
        clock.now += seconds  # LINT: rogue-clock-augstore
        self.clock.wait_time = 0.0  # LINT: rogue-clock-store
        return clock.now
