"""``timer_churn``: in-process ``TimerWheel`` over a 4-shard fabric.

The scalar engine ``ServeConfig()`` selects by default.  Set-up arms a
seeded ramp of timers; the timed window then runs an arm / cancel /
reset / ``expire_until`` mix in which most timers are cancelled or
pushed back before they fire.  One operation is one ``TimerWheel``
call; one latency sample is one call.

Remove and retag writes dominate here, where the other two workloads
push and pop, so a push/pop gain that costs cancel or repin shows.
"""

from __future__ import annotations

import random
import time
from array import array
from typing import Dict, List

from common import first_mismatch
from repro.hwsim.errors import ProtocolError

SHARDS = 4
CAPACITY_PER_SHARD = 4096
GRANULARITY = 1.0
#: timers armed during set-up; the mix holds the live set near this
RAMP = 4096
LOW, HIGH = int(RAMP * 0.9), int(RAMP * 1.1)
#: deadlines land this far past ``now`` (quanta); the spread stays well
#: inside half the 4096-value tag space
DEADLINE_MIN, DEADLINE_SPAN = 100.0, 500.0
#: mean clock advance per operation: a deadline sits 5k-30k operations
#: out, so most timers are cancelled or reset before they fire
MEAN_STEP = 0.02
#: cumulative thresholds of the mix: arm, cancel, reset, expire
ARM, CANCEL, RESET = 0.30, 0.55, 0.90
#: mix steps run in set-up, so the ramp's deadlines start firing before
#: the timed window and its fire rate is already steady
WARMUP_STEPS = 20_000


class TimerMix:
    """Seeded op stream over one wheel; timer ids are non-negative
    because a fabric backend routes them as flow ids."""

    def __init__(self, seed: int, mode: str) -> None:
        from repro.fabric.fabric import ScheduleFabric
        from repro.net.timer import TimerWheel

        self.fabric = ScheduleFabric(
            shards=SHARDS,
            granularity=GRANULARITY,
            capacity_per_shard=CAPACITY_PER_SHARD,
            mode=mode,
        )
        self.wheel = TimerWheel(self.fabric)
        self.rng = random.Random(seed)
        self.now = 0.0
        self.next_id = 0
        #: live timer ids (swap-remove list) and id -> (token, slot)
        self.live: List[int] = []
        self.token: Dict[int, int] = {}
        self.slot: Dict[int, int] = {}
        self.fired = (array("d"), array("q"))
        for _ in range(RAMP):
            self._arm()

    def _arm(self) -> None:
        timer_id = self.next_id
        self.next_id += 1
        deadline = self.now + DEADLINE_MIN + self.rng.random() * DEADLINE_SPAN
        self.token[timer_id] = self.wheel.arm(deadline, timer_id)
        self.slot[timer_id] = len(self.live)
        self.live.append(timer_id)

    def _forget(self, timer_id: int) -> int:
        """Drop ``timer_id`` from the live set; returns its token."""
        slot = self.slot.pop(timer_id)
        last = self.live.pop()
        if last != timer_id:
            self.live[slot] = last
            self.slot[last] = slot
        return self.token.pop(timer_id)

    def step(self) -> int:
        """One ``TimerWheel`` call; returns how many timers fired."""
        rng = self.rng
        self.now += rng.random() * 2 * MEAN_STEP
        roll = rng.random()
        pending = len(self.live)
        if roll < ARM and pending > HIGH:
            roll = ARM  # hold the live set: cancel instead
        elif ARM <= roll < CANCEL and pending < LOW:
            roll = 0.0  # arm instead
        if roll < ARM:
            self._arm()
        elif roll < CANCEL:
            timer_id = self.live[rng.randrange(pending)]
            self.wheel.cancel(self._forget(timer_id))
        elif roll < RESET:
            timer_id = self.live[rng.randrange(pending)]
            deadline = self.now + DEADLINE_MIN + rng.random() * DEADLINE_SPAN
            self.wheel.reset(self.token[timer_id], deadline)
        else:
            due = self.wheel.expire_until(self.now)
            deadlines, ids = self.fired
            for deadline, timer_id in due:
                self._forget(timer_id)
                deadlines.append(deadline)
                ids.append(timer_id)
            return len(due)
        return 0


class Workload:
    engine = "turbo"
    #: the untimed replay engine the fired sequence must match
    replay_engine = "vector"

    def __init__(self, seed: int, mode: str = engine) -> None:
        self.seed = seed
        self.mix = TimerMix(seed, mode)
        self.steps = 0
        self.advance(WARMUP_STEPS)

    def advance(self, steps: int) -> None:
        """Untimed steps; a refused call counts as nothing."""
        for _ in range(steps):
            try:
                self.mix.step()
            except ProtocolError:
                pass

    @property
    def fabric(self):
        return self.mix.fabric

    def buffer_high_watermark(self) -> int:
        return 0

    def run(self, seconds: float, recorder=None) -> dict:
        mix = self.mix
        latencies = array("d")
        clock = time.perf_counter
        fired = steps = failed = 0
        start = clock()
        deadline = start + seconds
        t1 = start
        while t1 < deadline:
            if recorder is not None:
                recorder.current_rid = self.steps + steps
            t0 = clock()
            try:
                fired += mix.step()
            except ProtocolError:
                failed += 1
            t1 = clock()
            latencies.append(t1 - t0)
            steps += 1
        self.steps += steps
        return {
            "window_s": t1 - start,
            "ops": steps,
            "attempted": steps,
            "served": fired,
            "failed": failed,
            "latencies": latencies,
        }

    def check(self) -> List[str]:
        """Conservation, deadline order, then a vector-engine replay."""
        problems = []
        wheel = self.mix.wheel
        if wheel.armed != wheel.fired + wheel.cancelled + wheel.pending:
            problems.append(
                f"timer conservation: armed {wheel.armed} != fired "
                f"{wheel.fired} + cancelled {wheel.cancelled} + pending "
                f"{wheel.pending}"
            )
        effective = wheel.fired_effective
        for index in range(1, len(effective)):
            if effective[index - 1] - effective[index] > GRANULARITY:
                problems.append(
                    f"fire {index} precedes fire {index - 1} by more than "
                    f"one quantum"
                )
                break
        replay = Workload(self.seed, self.replay_engine)
        replay.advance(self.steps)
        mismatch = first_mismatch(
            list(zip(*self.mix.fired)),
            list(zip(*replay.mix.fired)),
            "fired (deadline, timer_id)",
        )
        if mismatch:
            problems.append(mismatch)
        return problems
