"""Video model: bitrate ladder, chunk grid, and per-chunk quality matrix.

A manifest describes one video as K chunks of fixed duration, each encoded at
every level of a bitrate ladder, plus a K x R matrix of mean SSIM scores so
policies can reason about perceptual quality instead of bitrate alone.

Chunk and level indices are 1-based throughout the public API, matching the
convention used in logs, reports and error messages.  Volumes are measured in
kilobits (1 kilobit = 1000 bits), consistent with kbps bandwidth figures.
"""

from __future__ import annotations

import json
import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

# A widely deployed production ladder, handy as a default (kbps).
NETFLIX_LADDER_KBPS = (235.0, 375.0, 560.0, 750.0, 1050.0, 1750.0, 2350.0, 3000.0, 4300.0, 5800.0)


class ManifestError(ValueError):
    """Manifest failed to parse or violates a structural constraint."""


@dataclass(frozen=True)
class BitrateLadder:
    """Strictly increasing encoding bitrates in kbps, levels numbered 1..R."""

    levels_kbps: tuple[float, ...]

    def __post_init__(self) -> None:
        levels = tuple(float(r) for r in self.levels_kbps)
        object.__setattr__(self, "levels_kbps", levels)
        if len(levels) < 2:
            raise ManifestError(f"ladder_kbps needs at least 2 levels, got {len(levels)}")
        for pos, rate in enumerate(levels, start=1):
            if not math.isfinite(rate) or rate <= 0:
                raise ManifestError(f"ladder_kbps[{pos}] must be a positive number, got {rate}")
            if pos > 1 and rate <= levels[pos - 2]:
                raise ManifestError(
                    f"ladder_kbps[{pos}] must exceed its predecessor "
                    f"({rate} listed after {levels[pos - 2]})"
                )

    @property
    def count(self) -> int:
        return len(self.levels_kbps)

    def rate_kbps(self, level: int) -> float:
        if not 1 <= level <= len(self.levels_kbps):
            raise IndexError(f"level {level} outside 1..{len(self.levels_kbps)}")
        return self.levels_kbps[level - 1]

    def highest_level_below(self, rate_kbps: float) -> int | None:
        """Highest level whose bitrate is strictly below rate_kbps, else None."""
        return bisect_left(self.levels_kbps, rate_kbps) or None

    def highest_level_at_or_below(self, rate_kbps: float) -> int | None:
        """Highest level whose bitrate is at most rate_kbps, else None."""
        level = bisect_right(self.levels_kbps, rate_kbps)
        # bisect_right puts NaN past the top rung, which is not at or below it.
        return level if level and self.levels_kbps[level - 1] <= rate_kbps else None


@dataclass(frozen=True)
class VideoManifest:
    """Immutable description of one video session's media.

    ssim[i-1][j-1] is the mean SSIM of chunk i at level j, in (0, 1].
    chunk_kilobits, when present, gives measured encoded sizes; otherwise a
    chunk at level j is assumed to weigh rate_j * chunk_duration kilobits.
    """

    chunk_count: int
    chunk_duration_s: float
    ladder: BitrateLadder
    ssim: tuple[tuple[float, ...], ...]
    chunk_kilobits: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "chunk_count", int(self.chunk_count))
        object.__setattr__(self, "chunk_duration_s", float(self.chunk_duration_s))
        if self.chunk_count < 1:
            raise ManifestError(f"chunk_count must be >= 1, got {self.chunk_count}")
        if not math.isfinite(self.chunk_duration_s) or self.chunk_duration_s <= 0:
            raise ManifestError(f"chunk_duration_s must be > 0, got {self.chunk_duration_s}")
        ssim = tuple(tuple(float(q) for q in row) for row in self.ssim)
        object.__setattr__(self, "ssim", ssim)
        if len(ssim) != self.chunk_count:
            raise ManifestError(f"ssim has {len(ssim)} rows, expected chunk_count={self.chunk_count}")
        for i, row in enumerate(ssim, start=1):
            if len(row) != self.ladder.count:
                raise ManifestError(f"ssim[{i}] has {len(row)} entries, expected {self.ladder.count}")
            for j, q in enumerate(row, start=1):
                if not math.isfinite(q) or not 0.0 < q <= 1.0:
                    raise ManifestError(f"ssim[{i}][{j}] must lie in (0, 1], got {q}")
        if self.chunk_kilobits is not None:
            sizes = tuple(tuple(float(v) for v in row) for row in self.chunk_kilobits)
            object.__setattr__(self, "chunk_kilobits", sizes)
            if len(sizes) != self.chunk_count:
                raise ManifestError(
                    f"chunk_kilobits has {len(sizes)} rows, expected chunk_count={self.chunk_count}"
                )
            for i, row in enumerate(sizes, start=1):
                if len(row) != self.ladder.count:
                    raise ManifestError(
                        f"chunk_kilobits[{i}] has {len(row)} entries, expected {self.ladder.count}"
                    )
                for j, v in enumerate(row, start=1):
                    if not math.isfinite(v) or v <= 0:
                        raise ManifestError(f"chunk_kilobits[{i}][{j}] must be > 0, got {v}")

    def _check_indices(self, chunk: int, level: int) -> None:
        if not 1 <= chunk <= self.chunk_count:
            raise IndexError(f"chunk {chunk} outside 1..{self.chunk_count}")
        if not 1 <= level <= self.ladder.count:
            raise IndexError(f"level {level} outside 1..{self.ladder.count}")

    def ssim_at(self, chunk: int, level: int) -> float:
        self._check_indices(chunk, level)
        return self.ssim[chunk - 1][level - 1]

    def chunk_volume(self, chunk: int, level: int) -> float:
        """Kilobits to transfer for one chunk at one level.

        Uses the measured size table when present, else the nominal
        bitrate x duration product.
        """
        self._check_indices(chunk, level)
        if self.chunk_kilobits is not None:
            return self.chunk_kilobits[chunk - 1][level - 1]
        return self.ladder.rate_kbps(level) * self.chunk_duration_s

    def to_dict(self) -> dict:
        doc = {
            "chunk_duration_s": self.chunk_duration_s,
            "ladder_kbps": list(self.ladder.levels_kbps),
            "ssim": [list(row) for row in self.ssim],
        }
        if self.chunk_kilobits is not None:
            doc["chunk_kilobits"] = [list(row) for row in self.chunk_kilobits]
        return doc


def manifest_from_dict(doc: dict) -> VideoManifest:
    for field in ("chunk_duration_s", "ladder_kbps", "ssim"):
        if field not in doc:
            raise ManifestError(f"missing required field {field}")
    ladder = BitrateLadder(tuple(doc["ladder_kbps"]))
    ssim = doc["ssim"]
    if not isinstance(ssim, list) or not ssim or not all(isinstance(r, list) for r in ssim):
        raise ManifestError("ssim must be a non-empty list of per-chunk rows")
    sizes = doc.get("chunk_kilobits")
    if sizes is not None and (not isinstance(sizes, list) or not all(isinstance(r, list) for r in sizes)):
        raise ManifestError("chunk_kilobits must be a list of per-chunk rows")
    return VideoManifest(
        chunk_count=len(ssim),
        chunk_duration_s=doc["chunk_duration_s"],
        ladder=ladder,
        ssim=tuple(tuple(row) for row in ssim),
        chunk_kilobits=tuple(tuple(row) for row in sizes) if sizes is not None else None,
    )


def load_manifest(path: str) -> VideoManifest:
    """Read and validate a manifest JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ManifestError(f"{path}: cannot read manifest: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ManifestError(f"{path}: not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ManifestError(f"{path}: manifest is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ManifestError(f"{path}: manifest must be a JSON object")
    try:
        return manifest_from_dict(doc)
    except ManifestError as exc:
        raise ManifestError(f"{path}: {exc}") from exc


def save_manifest(manifest: VideoManifest, path: str) -> None:
    text = json.dumps(manifest.to_dict(), indent=1)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


@dataclass(frozen=True)
class SaturationProfile:
    """Shape of a synthetic quality curve.

    q_floor is the SSIM at the lowest rung, q_ceiling the asymptote, and
    knee_kbps the bitrate scale past which extra bits stop paying off.
    per_chunk_spread in [0, 1] varies how much individual chunks benefit
    from bitrate: 0 makes every chunk identical, 1 lets some chunks sit
    flat at the ceiling (easy content) while others use the full lift.
    """

    q_floor: float = 0.70
    q_ceiling: float = 0.985
    knee_kbps: float = 1200.0
    jitter_seed: int = 0
    per_chunk_spread: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.q_floor <= self.q_ceiling <= 1.0:
            raise ManifestError(
                f"need 0 < q_floor <= q_ceiling <= 1, got {self.q_floor}, {self.q_ceiling}"
            )
        if not 0.0 <= self.per_chunk_spread <= 1.0:
            raise ManifestError(f"per_chunk_spread must lie in [0, 1], got {self.per_chunk_spread}")


def synthesize_manifest(
    ladder: BitrateLadder,
    chunk_count: int,
    chunk_duration_s: float,
    profile: SaturationProfile = SaturationProfile(),
) -> VideoManifest:
    """Generate a manifest whose SSIM rows follow a saturating curve.

    Row i is q_ceiling - (q_ceiling - q_floor) * m_i * exp(-(r - r1) / scale)
    with scale = knee - r1 and a per-chunk lift factor m_i drawn from a
    seeded RNG.  Same seed, same manifest.
    """
    if not ladder.levels_kbps[0] <= profile.knee_kbps <= ladder.levels_kbps[-1]:
        raise ManifestError(
            f"knee_kbps {profile.knee_kbps} outside ladder span "
            f"[{ladder.levels_kbps[0]}, {ladder.levels_kbps[-1]}]"
        )
    rng = random.Random(profile.jitter_seed)
    r1 = ladder.levels_kbps[0]
    scale = max(profile.knee_kbps - r1, 1e-6)
    lift = profile.q_ceiling - profile.q_floor
    rows = []
    for _ in range(chunk_count):
        m = 1.0 + profile.per_chunk_spread * rng.uniform(-1.0, 1.0)
        m = min(max(m, 0.0), 1.0)
        rows.append(
            tuple(
                round(profile.q_ceiling - lift * m * math.exp(-(r - r1) / scale), 6)
                for r in ladder.levels_kbps
            )
        )
    return VideoManifest(
        chunk_count=chunk_count,
        chunk_duration_s=chunk_duration_s,
        ladder=ladder,
        ssim=tuple(rows),
    )
