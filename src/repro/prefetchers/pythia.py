"""Pythia — customizable RL-based prefetcher (Bera+, MICRO 2021).

Pythia formulates prefetching itself as reinforcement learning: the *state*
is a program feature (we use the paper's default — PC+delta path signature),
the *actions* are prefetch offsets (including "no prefetch"), and the
*reward* scores each issued prefetch by accuracy and timeliness.  Its only
bandwidth awareness is a windowed accuracy self-throttle.

Q-values live in two hashed "vaults" (the same partitioned-table idea Athena
generalises into its QVStore).  Issued prefetches enter an evaluation queue
(EQ); when a demand later hits the prefetched line the action is rewarded as
accurate, and when the EQ entry ages out unused it is penalised.  SARSA-style
updates propagate the reward to the state-action pair that issued it.

The paper configures Pythia at L2C with a 25.5 KB budget (Table 8).
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import List

from .base import Prefetcher

#: Pythia's offset action space (a compact version of the MICRO'21 list).
ACTIONS = (0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, -1, -2, -4)
_NO_PREFETCH = 0

_PLANES = 2
_ROWS = 128
_EQ_CAPACITY = 64

_REWARD_ACCURATE = 20.0
_REWARD_INACCURATE = -14.0
_REWARD_SILENCE_NO_LOSS = 12.0
_REWARD_SILENCE_COVERAGE_LOSS = -6.0

_ALPHA = 0.0065 * 16  # scaled up: our traces are ~1e4x shorter than 500M
_GAMMA = 0.55
_EPSILON = 0.002


class _Vault:
    """One hashed Q-value plane: rows x actions."""

    def __init__(self, rows: int, num_actions: int, multiplier: int) -> None:
        self.rows = rows
        self.multiplier = multiplier
        self.q = [[0.0] * num_actions for _ in range(rows)]

    def row(self, state: int) -> int:
        h = (state * self.multiplier) & 0xFFFFFFFFFFFFFFFF
        h ^= h >> 29
        return h % self.rows


class PythiaPrefetcher(Prefetcher):
    """RL-based L2C prefetcher with EQ-driven reward assignment."""

    level = "l2c"
    max_degree = 4

    def __init__(self, seed: int = 0xA11CE) -> None:
        super().__init__()
        self._vaults = [
            _Vault(_ROWS, len(ACTIONS), m)
            for m in (0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F)[:_PLANES]
        ]
        # Hot-path handles: the two Q-planes, indexed [row][action].
        self._plane0 = self._vaults[0].q
        self._plane1 = self._vaults[1].q
        # state -> (row0, row1) memo: the row hash is pure, and PC+delta
        # states repeat constantly.  Deterministically bounded.
        self._row_memo: dict = {}
        # Windowed accuracy self-throttle (Pythia's built-in bandwidth-aware
        # throttling, §2.1.1 of the Athena paper): when recent prefetch
        # accuracy collapses, Pythia caps its own degree and demands strong
        # Q-value evidence before issuing.
        self._window_issued = 0
        self._window_useful = 0
        self._throttled = False
        # line -> (state, action_index) for issued, not-yet-judged prefetches
        self._eq: OrderedDict = OrderedDict()
        self._pending_updates: deque = deque()
        # page -> (last line, last delta): the PC+Delta program feature is
        # computed within a page, as in Pythia's MICRO'21 configuration, so
        # interleaved streams do not scramble each other's deltas.
        self._pages: OrderedDict = OrderedDict()
        self._rng_state = seed & 0xFFFFFFFF

    # -- tiny xorshift RNG so the prefetcher is self-contained/deterministic --

    def _rand(self) -> float:
        x = self._rng_state
        x ^= (x << 13) & 0xFFFFFFFF
        x ^= x >> 17
        x ^= (x << 5) & 0xFFFFFFFF
        self._rng_state = x
        return x / 0xFFFFFFFF

    # -- Q-value plumbing -------------------------------------------------------
    #
    # Both planes' rows are resolved once per state and summed directly;
    # plane order and float-operation order match the vault-loop versions,
    # so Q trajectories are bit-identical to them.

    def _rows(self, state: int):
        memo = self._row_memo
        rows = memo.get(state)
        if rows is None:
            if len(memo) > 65536:
                memo.clear()
            h0 = (state * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
            h0 ^= h0 >> 29
            h1 = (state * 0xC2B2AE3D27D4EB4F) & 0xFFFFFFFFFFFFFFFF
            h1 ^= h1 >> 29
            rows = (self._plane0[h0 % _ROWS], self._plane1[h1 % _ROWS])
            memo[state] = rows
        return rows

    def _q(self, state: int, action_index: int) -> float:
        row0, row1 = self._rows(state)
        return row0[action_index] + row1[action_index]

    def _update(self, state: int, action_index: int, target: float) -> None:
        row0, row1 = self._rows(state)
        current = row0[action_index] + row1[action_index]
        delta = _ALPHA * (target - current) / _PLANES
        row0[action_index] += delta
        row1[action_index] += delta

    def _select_action(self, state: int) -> int:
        if self._rand() < _EPSILON:
            return int(self._rand() * len(ACTIONS)) % len(ACTIONS)
        row0, row1 = self._rows(state)
        best = 0
        best_q = row0[0] + row1[0]
        for i in range(1, len(ACTIONS)):
            q = row0[i] + row1[i]
            if q > best_q:
                best_q = q
                best = i
        return best

    # -- main hook ---------------------------------------------------------------

    def _train_and_predict(self, pc: int, line_addr: int, hit: bool) -> List[int]:
        page = line_addr >> 6
        entry = self._pages.get(page)
        if entry is None:
            # First touch of a page: no delta history exists, so the
            # PC+delta feature is degenerate.  Pythia trains its page
            # tracker but issues nothing — prefetching on a zero-delta
            # signature is indistinguishable from noise and is the single
            # largest junk source on irregular workloads.
            self._pages[page] = [line_addr, 0]
            if len(self._pages) > 64:
                self._pages.popitem(last=False)
            return []
        else:
            delta = line_addr - entry[0]
            last_delta = entry[1]
            entry[0] = line_addr
            if delta:
                entry[1] = delta
            self._pages.move_to_end(page)
        state = (
            ((pc >> 2) << 14) ^ ((delta & 0x7F) << 7) ^ (last_delta & 0x7F)
        ) & 0xFFFFFFFF

        self._drain_rewards(state)

        action_index = self._select_action(state)
        offset = ACTIONS[action_index]

        if offset == _NO_PREFETCH:
            # Pythia's two-sided silence reward: staying silent on an
            # access that *hit* on-chip is correct (no coverage to lose);
            # staying silent on a miss is a loss of coverage and is
            # penalised.  A flat penalty would teach the agent that
            # silence is always bad and force it to spray on noise.
            reward = (_REWARD_SILENCE_NO_LOSS if hit
                      else _REWARD_SILENCE_COVERAGE_LOSS)
            self._pending_updates.append((state, action_index, reward))
            return []

        target = line_addr + offset
        if target < 0:
            return []
        if self._throttled and self._q(state, action_index) <= 0.0:
            # Under low observed accuracy, only offsets with positively
            # learned Q-values keep issuing; unproven ones stay silent
            # until the accuracy window recovers.
            return []
        self._enqueue_eq(target, state, action_index)
        if self._throttled:
            # Degree collapses to 1 under low observed accuracy; the
            # trickle keeps training signal flowing (and keeps Pythia
            # mildly harmful on truly adverse workloads, as the paper
            # observes even with its built-in throttling).
            return [target]
        # Degree > 1 extends along the same offset direction.
        return [target + offset * k for k in range(self.max_degree)]

    def _enqueue_eq(self, line: int, state: int, action_index: int) -> None:
        if line in self._eq:
            return
        if len(self._eq) >= _EQ_CAPACITY:
            _, (old_state, old_action) = self._eq.popitem(last=False)
            self._pending_updates.append(
                (old_state, old_action, _REWARD_INACCURATE)
            )
        self._eq[line] = (state, action_index)

    def _drain_rewards(self, next_state: int) -> None:
        """Apply queued rewards with a SARSA-style bootstrapped target."""
        next_action = self._select_action(next_state)
        row0, row1 = self._rows(next_state)
        bootstrap = _GAMMA * (row0[next_action] + row1[next_action])
        updates = self._pending_updates
        while updates:
            state, action_index, reward = updates.popleft()
            self._update(state, action_index, reward + bootstrap)

    # -- feedback from the hierarchy ------------------------------------------

    def on_prefetch_useful(self, line_addr: int) -> None:
        self._window_useful += 1
        entry = self._eq.pop(line_addr, None)
        if entry is not None:
            state, action_index = entry
            self._pending_updates.append((state, action_index, _REWARD_ACCURATE))

    def on_prefetch_filled(self, line_addr: int, went_offchip: bool) -> None:
        self._window_issued += 1
        if self._window_issued >= 128:
            accuracy = self._window_useful / self._window_issued
            self._throttled = accuracy < 0.25
            self._window_issued = 0
            self._window_useful = 0

    def storage_bits(self) -> int:
        q_entry = 16
        eq_entry = 40 + 32 + 4
        return (
            _PLANES * _ROWS * len(ACTIONS) * q_entry
            + _EQ_CAPACITY * eq_entry
            + 128  # signature and bookkeeping registers
        )
