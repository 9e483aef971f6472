"""Failure model and deterministic fault injection for the engine.

Production campaigns treat worker failure as the common case: a worker
process can raise, crash, hang, or hand back a payload that fails to
decode.  This module gives every one of those outcomes a first-class
representation:

- :class:`RequestFailure` — one structured failure observation (what
  failed, how, on which worker, on which attempt).
- :class:`ExecutionPolicy` — the retry/timeout budget: how many times a
  request may be retried, how long one attempt may run, how backoff
  between attempts is computed (exponential with *deterministic*
  jitter, so two replays of the same campaign wait the same amounts).
- :class:`FaultPlan` — a seeded, content-keyed fault injector.  Faults
  are decided purely from ``sha256(seed:key)``, so a plan spec names a
  reproducible set of victims: the same spec over the same request set
  injects the same faults on every run, on every machine.  This is how
  CI proves the resilience layer works.
- :class:`ExecutionError` — raised by batch entry points after all
  retries are exhausted; carries the full failure list so callers can
  report per-key outcomes (everything that *succeeded* has already been
  recorded by then).
"""

from __future__ import annotations

import hashlib
import os
import time
import traceback as _traceback
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "InjectedFault",
    "RequestFailure",
    "ExecutionPolicy",
    "FaultPlan",
    "ExecutionError",
    "format_failures",
]

#: failure kinds, in the vocabulary journal events and tidy rows use.
FAILURE_KINDS = ("exception", "timeout", "crash", "corrupt", "cancelled")

#: fault modes a plan can inject.
FAULT_MODES = ("crash", "raise", "hang", "corrupt")


class InjectedFault(RuntimeError):
    """Raised (or planted) by a :class:`FaultPlan` in a worker."""


@dataclass(frozen=True)
class RequestFailure:
    """One observed failure of one request attempt.

    ``kind`` is one of :data:`FAILURE_KINDS`:

    - ``exception`` — the request raised in the worker,
    - ``timeout`` — the attempt exceeded the policy's wall-clock budget,
    - ``crash`` — the worker process died (``BrokenProcessPool``),
    - ``corrupt`` — the payload came back but failed to decode,
    - ``cancelled`` — the request was never finished because fail-fast
      abandoned the batch after another key's terminal failure.
    """

    key: str
    kind: str
    error: str
    exc_type: Optional[str] = None
    traceback: Optional[str] = None
    worker: Optional[str] = None
    attempts: int = 1

    @classmethod
    def from_exception(cls, key: str, exc: BaseException, *,
                       kind: str = "exception",
                       worker: Optional[str] = None,
                       attempts: int = 1) -> "RequestFailure":
        tb = "".join(_traceback.format_exception(
            type(exc), exc, exc.__traceback__)).strip() or None
        return cls(key=key, kind=kind, error=str(exc) or type(exc).__name__,
                   exc_type=type(exc).__name__, traceback=tb,
                   worker=worker, attempts=attempts)

    def to_dict(self) -> dict:
        return {
            "key": self.key, "kind": self.kind, "error": self.error,
            "exc_type": self.exc_type, "traceback": self.traceback,
            "worker": self.worker, "attempts": self.attempts,
        }

    def summary(self) -> str:
        """One-line human-readable description."""
        parts = [f"{self.key[:12]}: {self.kind}"]
        if self.exc_type and self.kind == "exception":
            parts.append(f"({self.exc_type})")
        parts.append(f"after {self.attempts} "
                     f"attempt{'s' if self.attempts != 1 else ''}")
        if self.error and self.kind != "cancelled":
            parts.append(f"- {self.error.splitlines()[0][:120]}")
        return " ".join(parts)


def _unit_hash(*parts) -> float:
    """Deterministic uniform float in [0, 1) from the given parts."""
    digest = hashlib.sha256(
        ":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2 ** 64


@dataclass(frozen=True)
class ExecutionPolicy:
    """Retry/timeout discipline for request execution.

    ``max_retries`` counts *re*-executions: a request is attempted at
    most ``max_retries + 1`` times.  ``timeout_s=None`` disables the
    per-attempt wall-clock limit.  Backoff before retry ``attempt``
    (1-based) is ``backoff_s * backoff_factor**(attempt-1)`` plus a
    deterministic jitter of up to ``jitter_fraction`` of that value,
    derived from the request key — no randomness, so replays are
    bit-identical.
    """

    max_retries: int = 2
    timeout_s: Optional[float] = None
    backoff_s: float = 0.05
    backoff_factor: float = 2.0
    jitter_fraction: float = 0.25
    max_rebuilds: int = 2
    fail_fast: bool = False

    @classmethod
    def from_env(cls, max_retries: Optional[int] = None,
                 timeout_s: Optional[float] = None,
                 fail_fast: Optional[bool] = None) -> "ExecutionPolicy":
        """Build a policy from the environment, with explicit overrides.

        ``REPRO_MAX_RETRIES`` and ``REPRO_TIMEOUT_S`` are the env
        fallbacks; explicit arguments win over them.
        """
        if max_retries is None:
            raw = os.environ.get("REPRO_MAX_RETRIES")
            if raw:
                max_retries = int(raw)
        if timeout_s is None:
            raw = os.environ.get("REPRO_TIMEOUT_S")
            if raw:
                timeout_s = float(raw)
        policy = cls()
        return replace(
            policy,
            max_retries=policy.max_retries if max_retries is None
            else max(0, int(max_retries)),
            timeout_s=policy.timeout_s if timeout_s is None
            else (float(timeout_s) if float(timeout_s) > 0 else None),
            fail_fast=policy.fail_fast if fail_fast is None
            else bool(fail_fast),
        )

    def backoff(self, key: str, attempt: int) -> float:
        """Seconds to wait before retry ``attempt`` (1-based) of ``key``."""
        base = self.backoff_s * self.backoff_factor ** max(0, attempt - 1)
        jitter = base * self.jitter_fraction * _unit_hash("backoff", key,
                                                          attempt)
        return base + jitter


def _parse_spec_fields(spec: str) -> Dict[str, str]:
    fields: Dict[str, str] = {}
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise ValueError(
                f"fault spec field {chunk!r} is not key=value")
        name, _, value = chunk.partition("=")
        fields[name.strip()] = value.strip()
    return fields


@dataclass(frozen=True)
class FaultPlan:
    """Deterministic, content-keyed fault injection plan.

    A plan assigns each request key at most one fault *mode* (from
    :data:`FAULT_MODES`) using only ``sha256(seed:key)`` — no global
    state, no randomness — so the set of victims is a pure function of
    the spec and the request population:

    >>> plan = FaultPlan.parse("raise=0.5,seed=7")
    >>> plan.decide("somekey", attempt=0) == plan.decide("somekey", 0)
    True

    The spec grammar is comma-separated ``key=value`` pairs: one rate
    per mode (``crash=0.3,hang=0.2,corrupt=0.2,raise=0.1`` — rates are
    probabilities over the key-hash unit interval and must sum to at
    most 1.0), plus optional ``seed=N`` (victim selection, default 0),
    ``times=N`` (how many attempts of a victim key are faulted before
    it is allowed to succeed, default 1 — so retries recover), and
    ``hang_s=F`` (how long a ``hang`` fault sleeps, default 30).

    Modes:

    - ``crash`` — the worker process exits hard (``os._exit``),
      surfacing as ``BrokenProcessPool`` in the parent,
    - ``raise`` — the request raises :class:`InjectedFault`,
    - ``hang`` — the attempt sleeps ``hang_s`` seconds before
      completing (meant to trip the policy timeout),
    - ``corrupt`` — the attempt completes but its payload is mangled
      so decode fails in the parent.
    """

    rates: Tuple[Tuple[str, float], ...] = ()
    seed: int = 0
    times: int = 1
    hang_s: float = 30.0

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a ``--faults`` / ``REPRO_FAULTS`` spec string."""
        fields = _parse_spec_fields(spec)
        seed = int(fields.pop("seed", 0))
        times = int(fields.pop("times", 1))
        hang_s = float(fields.pop("hang_s", 30.0))
        rates: List[Tuple[str, float]] = []
        for mode, raw in fields.items():
            if mode not in FAULT_MODES:
                raise ValueError(
                    f"unknown fault mode {mode!r}; expected one of "
                    f"{', '.join(FAULT_MODES)} or seed/times/hang_s")
            rate = float(raw)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"fault rate {mode}={rate} outside [0, 1]")
            if rate:
                rates.append((mode, rate))
        if sum(rate for _, rate in rates) > 1.0 + 1e-9:
            raise ValueError("fault rates sum past 1.0")
        return cls(rates=tuple(rates), seed=seed, times=times,
                   hang_s=hang_s)

    @classmethod
    def from_env(cls) -> Optional["FaultPlan"]:
        """The plan named by ``REPRO_FAULTS``, or None when unset."""
        spec = os.environ.get("REPRO_FAULTS")
        return cls.parse(spec) if spec else None

    def decide(self, key: str, attempt: int) -> Optional[str]:
        """The fault mode to inject for this (key, attempt), if any.

        Victim selection depends only on (seed, key); the ``times``
        bound depends on the attempt number, so a faulted key succeeds
        once it has been retried past ``times`` attempts.
        """
        if not self.rates or attempt >= self.times:
            return None
        u = _unit_hash(self.seed, key)
        edge = 0.0
        for mode, rate in self.rates:
            edge += rate
            if u < edge:
                return mode
        return None

    def victims(self, keys: Sequence[str]) -> Dict[str, str]:
        """Map of key → mode for the keys this plan would fault."""
        out: Dict[str, str] = {}
        for key in keys:
            mode = self.decide(key, attempt=0)
            if mode is not None:
                out[key] = mode
        return out

    # -- worker-side application ------------------------------------------

    def pre_execute(self, key: str, attempt: int, inline: bool) -> None:
        """Apply any pre-execution fault for this attempt.

        ``crash`` kills the worker process outright; in inline
        (single-process) execution it downgrades to a raise so the
        parent survives to retry.  ``raise`` raises.  ``hang`` sleeps
        past the timeout, then lets the attempt proceed.
        """
        mode = self.decide(key, attempt)
        if mode == "crash":
            if inline:
                raise InjectedFault(
                    f"injected crash (inline) for {key[:12]} "
                    f"attempt {attempt}")
            os._exit(86)
        if mode == "raise":
            raise InjectedFault(
                f"injected exception for {key[:12]} attempt {attempt}")
        if mode == "hang":
            time.sleep(self.hang_s)

    def post_execute(self, key: str, attempt: int, payload: dict) -> dict:
        """Apply any post-execution fault (payload corruption)."""
        if self.decide(key, attempt) == "corrupt":
            payload = dict(payload)
            payload["schema"] = -1  # decode_result rejects the schema
        return payload


class ExecutionError(RuntimeError):
    """A batch finished with requests whose retries were exhausted.

    By the time this is raised, every *successful* sibling result has
    already been recorded to the memo/store — the error only describes
    what is missing.
    """

    def __init__(self, failures: Sequence[RequestFailure]) -> None:
        self.failures: List[RequestFailure] = list(failures)
        terminal = [f for f in self.failures if f.kind != "cancelled"]
        super().__init__(
            f"{len(terminal)} request(s) failed after retries "
            f"({len(self.failures) - len(terminal)} cancelled)")


def format_failures(failures: Sequence[RequestFailure],
                    limit: int = 10) -> str:
    """Multi-line human-readable failure report for CLI output."""
    lines = [f"{len(failures)} request(s) did not complete:"]
    for failure in list(failures)[:limit]:
        lines.append(f"  {failure.summary()}")
    if len(failures) > limit:
        lines.append(f"  ... and {len(failures) - limit} more")
    return "\n".join(lines)
