"""Adaptation policies: one class per policy, one decision per fetch.

Each policy takes its parameters in `__init__`, learns from completed
downloads through `observe`, and maps an Observation to a Decision in
`decide` without other side effects, so each decision stays recomputable
from logs.  `decide(policy, obs)` fetches chunk 1 at the lowest level
(reason "startup") for every policy; levels are 1-based ladder indices.

* sba     - SSIM-gated: below the critical buffer threshold drop to the
            floor; otherwise pick the highest level priced under the
            bandwidth estimate and take it only if the SSIM gained over
            the previous chunk beats the session's mean SSIM drift, else
            hold the previous level.
* bba     - buffer-mapped: piecewise-linear map from buffer occupancy
            between a reservoir and a cushion onto the ladder span.
* festive - harmonic-mean throughput target approached one rung at a time,
            no buffer input.
* osmf    - ratio of chunk duration to last download time: fast downloads
            step one rung up, slow ones re-select under the implied rate.

Adding a policy means one class here and one entry in POLICIES.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

from .manifest import VideoManifest


class Observation(NamedTuple):
    """Everything a policy may look at when deciding one fetch.

    An unchecked record: the engine builds one per decision from values the
    config, the manifest and its own per-chunk checks have already proven.
    """

    chunk: int
    buffer_s: float
    buffer_capacity_s: float
    critical_threshold_s: float
    prev_level: int | None
    bandwidth_estimate_kbps: float
    ssim_delta_mean: float
    manifest: VideoManifest


class Decision(NamedTuple):
    level: int
    reason: str


class Policy:
    """Base of every policy; stateless unless a subclass overrides observe.

    The engine calls `observe` once per completed download and `decide` for
    chunks 2..N only, so every decision follows at least one observation.
    """

    def observe(self, throughput_kbps: float, duration_s: float) -> None:
        pass

    def decide(self, obs: Observation) -> Decision:
        raise NotImplementedError


class Sba(Policy):
    """SSIM-gated adaptation.

    Buffer at or under the critical threshold forces the lowest level.
    Otherwise the candidate is the highest level priced strictly under the
    bandwidth estimate (floor of the ladder when none is); it is fetched
    only when switching to it would change SSIM, relative to the previous
    chunk as displayed, by more than the mean SSIM drift seen so far.
    Anything else holds the previous level.  With upgrade_only, a candidate
    below the previous level is never taken.
    """

    def __init__(self, upgrade_only: bool = False):
        self.upgrade_only = upgrade_only

    def decide(self, obs: Observation) -> Decision:
        if obs.buffer_s <= obs.critical_threshold_s:
            return Decision(1, "critical_drop")
        candidate = obs.manifest.ladder.highest_level_below(obs.bandwidth_estimate_kbps)
        if candidate is None:
            candidate = 1
        gain = obs.manifest.ssim_at(obs.chunk, candidate) - obs.manifest.ssim_at(
            obs.chunk - 1, obs.prev_level
        )
        take = gain > obs.ssim_delta_mean
        if self.upgrade_only:
            take = take and candidate > obs.prev_level
        if take:
            return Decision(candidate, "upgrade")
        return Decision(obs.prev_level, "hold")


class Bba(Policy):
    """Buffer-occupancy mapping between a reservoir and a cushion."""

    def __init__(self, reservoir_frac: float = 0.1, cushion_frac: float = 0.9):
        if not 0.0 < reservoir_frac < cushion_frac <= 1.0:
            raise ValueError(
                f"need 0 < reservoir_frac < cushion_frac <= 1, got {reservoir_frac}, {cushion_frac}"
            )
        self.reservoir_frac = reservoir_frac
        self.cushion_frac = cushion_frac

    def decide(self, obs: Observation) -> Decision:
        ladder = obs.manifest.ladder
        reservoir = self.reservoir_frac * obs.buffer_capacity_s
        cushion = self.cushion_frac * obs.buffer_capacity_s
        if obs.buffer_s <= reservoir:
            return Decision(1, "bba_reservoir")
        if obs.buffer_s >= cushion:
            return Decision(ladder.count, "bba_cushion")
        r1 = ladder.levels_kbps[0]
        top = ladder.levels_kbps[-1]
        mapped = r1 + (top - r1) * (obs.buffer_s - reservoir) / (cushion - reservoir)
        level = ladder.highest_level_at_or_below(mapped)
        return Decision(level if level is not None else 1, "bba_interpolated")


class Festive(Policy):
    """Harmonic-mean throughput target, approached one rung per decision."""

    def __init__(self, window: int = 5):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.samples_kbps: deque[float] = deque(maxlen=window)

    def observe(self, throughput_kbps: float, duration_s: float) -> None:
        self.samples_kbps.append(throughput_kbps)

    def decide(self, obs: Observation) -> Decision:
        inverse_total = 0.0  # a left-to-right fold, as every mean in abrsim
        for v in self.samples_kbps:
            inverse_total += 1.0 / v
        harmonic_mean = len(self.samples_kbps) / inverse_total  # not 1 / mean: that rounds twice
        target = obs.manifest.ladder.highest_level_at_or_below(harmonic_mean)
        if target is None:
            target = 1
        if target > obs.prev_level:
            return Decision(obs.prev_level + 1, "festive_up")
        if target < obs.prev_level:
            return Decision(obs.prev_level - 1, "festive_down")
        return Decision(obs.prev_level, "festive_hold")


class Osmf(Policy):
    """Duration-ratio stepping, as in classic OSMF players.

    ratio = chunk duration / last download time.  Clearly faster than real
    time steps one rung up; clearly slower re-selects the highest level
    sustainable at the previous level's bitrate scaled by the ratio.
    """

    def __init__(self, up_ratio: float = 1.9, down_ratio: float = 0.9):
        if not 0.0 < down_ratio < up_ratio:
            raise ValueError(f"need 0 < down_ratio < up_ratio, got {down_ratio}, {up_ratio}")
        self.up_ratio = up_ratio
        self.down_ratio = down_ratio
        self.last_download_s: float | None = None

    def observe(self, throughput_kbps: float, duration_s: float) -> None:
        self.last_download_s = duration_s

    def decide(self, obs: Observation) -> Decision:
        ladder = obs.manifest.ladder
        ratio = obs.manifest.chunk_duration_s / self.last_download_s
        if ratio > self.up_ratio:
            return Decision(min(obs.prev_level + 1, ladder.count), "osmf_up")
        if ratio < self.down_ratio:
            implied = ladder.rate_kbps(obs.prev_level) * ratio
            level = ladder.highest_level_at_or_below(implied)
            return Decision(level if level is not None else 1, "osmf_down")
        return Decision(obs.prev_level, "osmf_hold")


POLICIES = {"sba": Sba, "bba": Bba, "festive": Festive, "osmf": Osmf}


def make_policy(name: str, params: dict | None = None) -> Policy:
    """Build the policy registered under `name` from its parameters."""
    if not isinstance(name, str) or name not in POLICIES:
        raise ValueError(f"unknown policy {name!r}, expected one of {', '.join(POLICIES)}")
    try:
        return POLICIES[name](**(params or {}))
    except TypeError as exc:
        raise ValueError(f"bad parameters for policy {name!r}: {exc}") from exc


def decide(policy: Policy, obs: Observation) -> Decision:
    """One fetch decision; chunk 1 is fetched at the lowest level by every policy."""
    if obs.chunk == 1:
        return Decision(1, "startup")
    return policy.decide(obs)
