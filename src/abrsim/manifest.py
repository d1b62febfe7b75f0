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
import os
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

# A widely deployed production ladder, handy as a default (kbps).
NETFLIX_LADDER_KBPS = (235.0, 375.0, 560.0, 750.0, 1050.0, 1750.0, 2350.0, 3000.0, 4300.0, 5800.0)


@dataclass(frozen=True)
class BitrateLadder:
    """Strictly increasing encoding bitrates in kbps, levels numbered 1..R."""

    levels_kbps: tuple[float, ...]

    def __post_init__(self) -> None:
        levels = tuple(json_value(self.levels_kbps, [0.0], "ladder_kbps"))
        object.__setattr__(self, "levels_kbps", levels)
        if len(levels) < 2:
            raise ValueError(f"ladder_kbps needs at least 2 levels, got {len(levels)}")
        for pos, rate in enumerate(levels, start=1):
            if rate <= 0:
                raise ValueError(f"ladder_kbps[{pos}] must be a positive number, got {rate}")
            if pos > 1 and rate <= levels[pos - 2]:
                raise ValueError(
                    f"ladder_kbps[{pos}] must exceed its predecessor "
                    f"({rate} listed after {levels[pos - 2]})"
                )

    @property
    def count(self) -> int:
        return len(self.levels_kbps)

    def highest_level_below(self, rate_kbps: float) -> int:
        """Highest level whose bitrate is strictly below rate_kbps, else the floor level 1."""
        return bisect_left(self.levels_kbps, rate_kbps) or 1

    def highest_level_at_or_below(self, rate_kbps: float) -> int:
        """Highest level whose bitrate is at most rate_kbps, else the floor level 1."""
        level = bisect_right(self.levels_kbps, rate_kbps)
        # bisect_right puts NaN past the top rung, which is not at or below it.
        return level if level and self.levels_kbps[level - 1] <= rate_kbps else 1


@dataclass(frozen=True)
class VideoManifest:
    """Immutable description of one video session's media.

    ssim[i-1][j-1] is the mean SSIM of chunk i at level j, in (0, 1];
    chunk_count, its row count, is derived.  chunk_kilobits, when present,
    gives measured encoded sizes; otherwise a chunk at level j is assumed to
    weigh rate_j * chunk_duration kilobits.  A manifest file's `ladder`
    arrives as its list of rates and becomes a BitrateLadder after
    chunk_duration_s is checked.
    """

    chunk_duration_s: float
    ladder: BitrateLadder
    ssim: tuple[tuple[float, ...], ...]
    chunk_kilobits: tuple[tuple[float, ...], ...] | None = None
    chunk_count: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "chunk_count", len(json_value(self.ssim, [], "ssim")))
        object.__setattr__(self, "chunk_duration_s", json_value(self.chunk_duration_s, 0.0, "chunk_duration_s"))
        if not isinstance(self.ladder, BitrateLadder):
            object.__setattr__(self, "ladder", BitrateLadder(self.ladder))
        if self.chunk_count < 1:
            raise ValueError(f"ssim needs at least 1 row, got {self.chunk_count}")
        if self.chunk_duration_s <= 0:
            raise ValueError(f"chunk_duration_s must be > 0, got {self.chunk_duration_s}")
        levels = self.ladder.count
        for name, top, bound in (("ssim", 1.0, "lie in (0, 1]"), ("chunk_kilobits", math.inf, "be > 0")):
            rows = getattr(self, name)
            if rows is None:
                continue
            if len(json_value(rows, [], name)) != self.chunk_count:  # only sizes can miss it
                raise ValueError(f"{name} has {len(rows)} rows, expected chunk_count={self.chunk_count}")
            # Each distinct row object is checked and converted once, at its first
            # occurrence; every occurrence then shares the converted tuple.  `rows`
            # keeps each row alive for the walk, so no id is reused within it.
            converted: dict[int, tuple[float, ...]] = {}
            table = []
            for i, row in enumerate(rows, start=1):
                done = converted.get(id(row))
                if done is None:
                    if len(json_value(row, [], f"{name}[{i}]")) != levels:
                        raise ValueError(f"{name}[{i}] has {len(row)} entries, expected {levels}")
                    for j, value in enumerate(row, start=1):
                        if not (type(value) is float and 0.0 < value <= top and math.isfinite(value)):
                            value = json_value(value, 0.0, f"{name}[{i}][{j}]")
                            if not 0.0 < value <= top:
                                raise ValueError(f"{name}[{i}][{j}] must {bound}, got {value}")
                    done = converted[id(row)] = tuple(map(float, row))
                table.append(done)
            object.__setattr__(self, name, tuple(table))

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
    """The manifest a parsed manifest file holds; every value must have its JSON type.

    A string or a bool where a number belongs is rejected, not converted, and so is a field it does not know.
    """
    unknown = doc.keys() - {"chunk_duration_s", "ladder_kbps", "ssim", "chunk_kilobits"}
    if unknown:
        raise ValueError(f"unknown manifest fields: {', '.join(sorted(unknown))}")
    for field in ("chunk_duration_s", "ladder_kbps", "ssim"):
        if field not in doc:
            raise ValueError(f"missing required field {field}")
    return VideoManifest(
        chunk_duration_s=doc["chunk_duration_s"],
        ladder=doc["ladder_kbps"],
        ssim=doc["ssim"],
        chunk_kilobits=doc.get("chunk_kilobits"),
    )


def load_manifest(path: str) -> VideoManifest:
    """Read and validate a manifest JSON file."""
    doc = parse_json(read_text(path, "manifest"), path)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: manifest must be a JSON object")
    try:
        return manifest_from_dict(doc)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def read_text(path: str, what: str) -> str:
    """The UTF-8 text of the file at `path`, which holds a `what`; a file that
    cannot be read or decoded raises a ValueError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ValueError(f"{path}: cannot read {what}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from exc


_JSON_TYPE_NAMES = {float: "a finite number", int: "an integer", bool: "true or false", str: "a string",
                    list: "an array", dict: "an object"}


def json_value(value, like, what: str):
    """`value` if it has the JSON type of the example `like`, else a ValueError naming `what`.

    The one statement of the rule: a bool is no number, and a number is finite
    (RFC 8259 has no NaN or Infinity).  A float example takes any finite int or
    float and returns it as a float; a bool, int, str or dict example takes
    only that exact type and returns `value` itself.  A list example takes a
    list or, built in code, a tuple: an empty one returns `value` itself, and
    one with an item checks each item against it, naming item k (counted from
    1) `what[k]`, and returns the checked items as a list.
    """
    kind = type(like)
    if type(value) is kind or kind is list and type(value) is tuple:
        if kind is float:
            if math.isfinite(value):
                return value
        elif kind is list and like:  # a loop, not a comprehension, keeps the arguments plain locals
            items = []
            for k, item in enumerate(value, start=1):
                items.append(json_value(item, like[0], f"{what}[{k}]"))
            return items
        else:
            return value
    elif kind is float and type(value) is int:
        try:
            return float(value)  # finite, or too large to convert
        except OverflowError:
            raise ValueError(f"{what} must be a finite number, got an integer too large for a float") from None
    raise ValueError(f"{what} must be {_JSON_TYPE_NAMES[kind]}, got {value!r}")


def parse_json(text: str, where: str):
    """The value `text` holds.  Anything `json.loads` rejects (a syntax error,
    an integer over the interpreter's digit limit, nesting deeper than its
    recursion limit) raises a ValueError naming `where`, a file or a log line."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise ValueError(f"{where}: not valid JSON: {exc}") from exc


def save_manifest(manifest: VideoManifest, path: str) -> None:
    write_text_atomically(path, json.dumps(manifest.to_dict(), indent=1) + "\n")


def write_text_atomically(path: str, text: str) -> None:
    """Write `text` to a temporary file beside `path`, then rename it over `path`.

    On any error the temporary file is removed and an existing `path`
    keeps its old bytes; an OSError names `path`, not the temporary file.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        try:
            os.remove(tmp)
        except OSError:
            pass
        if isinstance(exc, OSError) and exc.filename == tmp and exc.filename2 is None:
            exc.filename = path  # a failed rename names both files already
        raise


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
            raise ValueError(
                f"need 0 < q_floor <= q_ceiling <= 1, got {self.q_floor}, {self.q_ceiling}"
            )
        if not 0.0 <= self.per_chunk_spread <= 1.0:
            raise ValueError(f"per_chunk_spread must lie in [0, 1], got {self.per_chunk_spread}")


def synthesize_manifest(
    ladder: BitrateLadder,
    chunk_count: int,
    chunk_duration_s: float,
    profile: SaturationProfile = SaturationProfile(),
) -> VideoManifest:
    """Generate a manifest whose SSIM rows follow a saturating curve.

    Row i is q_ceiling - (q_ceiling - q_floor) * m_i * exp(-(r - r1) / scale)
    with scale = knee - r1 and a per-chunk lift factor m_i, drawn from a
    seeded RNG and clamped to [0, 1].  Same seed, same manifest.  Every row
    with m_i = 1 (full lift) is one shared tuple.
    """
    if not ladder.levels_kbps[0] <= profile.knee_kbps <= ladder.levels_kbps[-1]:
        raise ValueError(
            f"knee_kbps {profile.knee_kbps} outside ladder span "
            f"[{ladder.levels_kbps[0]}, {ladder.levels_kbps[-1]}]"
        )
    uniform = random.Random(profile.jitter_seed).uniform
    r1 = ladder.levels_kbps[0]
    scale = max(profile.knee_kbps - r1, 1e-6)
    q_ceiling, spread = profile.q_ceiling, profile.per_chunk_spread
    lift = q_ceiling - profile.q_floor
    decay = [math.exp(-(r - r1) / scale) for r in ladder.levels_kbps]
    # lift * m * decay groups as (lift * m) * decay, so one product per row is bit-identical.
    full = tuple([round(q_ceiling - lift * d, 6) for d in decay])
    rows = []
    for _ in range(chunk_count):
        m = 1.0 + spread * uniform(-1.0, 1.0)
        if m >= 1.0:
            rows.append(full)
        else:
            lifted = lift * max(m, 0.0)
            rows.append(tuple([round(q_ceiling - lifted * d, 6) for d in decay]))
    return VideoManifest(
        chunk_duration_s=chunk_duration_s,
        ladder=ladder,
        ssim=tuple(rows),
    )
