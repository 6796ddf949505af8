"""File model: extensions, sizes, categories, duplication and updates.

Section 5.3 of the paper characterises the files stored in U1:

* 90 % of files are smaller than 1 MByte, yet a small number of large files
  (> 25 MB) generates most of the traffic (Fig. 2b, Fig. 4b);
* per-extension size distributions are very disparate — compressed/media
  files are much larger than code or documents (Fig. 4b);
* grouping the 55 most popular extensions into 7 categories shows Code as
  the most numerous category while Audio/Video dominates storage
  consumption (Fig. 4c);
* file-level cross-user deduplication would remove ~17 % of the data, with a
  long tail of duplicates per content hash (Fig. 4a);
* ~10 % of uploads are updates of existing files, accounting for ~18.5 % of
  the upload traffic because delta updates are not supported.

:class:`FileModel` samples extensions, sizes and content hashes consistent
with those observations.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.util.rngpool import RngPool
from repro.util.units import KB, MB

__all__ = [
    "ExtensionProfile",
    "FileModel",
    "PopularContentPool",
    "FILE_CATEGORIES",
    "PROFILE_EXTENSIONS",
    "EXTENSION_PROFILES",
    "category_of_extension",
    "new_file_entries",
    "update_jitter",
]


@dataclass(frozen=True)
class ExtensionProfile:
    """Statistical profile of one file extension.

    Sizes are lognormal: ``median_size`` is the median in bytes and ``sigma``
    the lognormal shape parameter.  ``popularity`` is the relative frequency
    of the extension among created files; ``compressible`` marks text-like
    contents (the U1 client compresses uploads, and the paper notes that
    compressible types are also the small ones).
    """

    extension: str
    category: str
    popularity: float
    median_size: float
    sigma: float
    compressible: bool = False


#: The 7 file categories of Fig. 4c.
FILE_CATEGORIES: tuple[str, ...] = (
    "Code", "Pictures", "Documents", "Audio/Video", "Binary", "Compressed", "Other",
)


#: Per-extension profiles.  Popularities are normalised at model build time;
#: the absolute values below encode the relative shares that reproduce the
#: Fig. 4c picture (Code the most numerous category, Audio/Video the largest
#: storage share) and the Fig. 4b per-extension size CDFs.
EXTENSION_PROFILES: tuple[ExtensionProfile, ...] = (
    # -- Code ----------------------------------------------------------------
    ExtensionProfile("py", "Code", 6.5, 3 * KB, 1.4, compressible=True),
    ExtensionProfile("c", "Code", 4.0, 6 * KB, 1.4, compressible=True),
    ExtensionProfile("h", "Code", 3.0, 2 * KB, 1.2, compressible=True),
    ExtensionProfile("js", "Code", 4.0, 8 * KB, 1.5, compressible=True),
    ExtensionProfile("php", "Code", 3.5, 6 * KB, 1.4, compressible=True),
    ExtensionProfile("java", "Code", 4.0, 5 * KB, 1.3, compressible=True),
    ExtensionProfile("html", "Code", 3.0, 10 * KB, 1.6, compressible=True),
    ExtensionProfile("css", "Code", 2.0, 6 * KB, 1.4, compressible=True),
    ExtensionProfile("xml", "Code", 2.5, 12 * KB, 1.8, compressible=True),
    # -- Pictures ------------------------------------------------------------
    ExtensionProfile("jpg", "Pictures", 9.0, 350 * KB, 1.2),
    ExtensionProfile("png", "Pictures", 6.0, 120 * KB, 1.5),
    ExtensionProfile("gif", "Pictures", 2.0, 40 * KB, 1.4),
    ExtensionProfile("svg", "Pictures", 1.0, 20 * KB, 1.5, compressible=True),
    # -- Documents -----------------------------------------------------------
    ExtensionProfile("pdf", "Documents", 3.5, 250 * KB, 1.6),
    ExtensionProfile("txt", "Documents", 4.0, 4 * KB, 1.8, compressible=True),
    ExtensionProfile("doc", "Documents", 2.0, 90 * KB, 1.3, compressible=True),
    ExtensionProfile("odt", "Documents", 1.5, 40 * KB, 1.3),
    ExtensionProfile("xls", "Documents", 1.0, 60 * KB, 1.4, compressible=True),
    ExtensionProfile("tex", "Documents", 1.0, 8 * KB, 1.5, compressible=True),
    # -- Audio/Video ---------------------------------------------------------
    ExtensionProfile("mp3", "Audio/Video", 3.0, 4.2 * MB, 0.7),
    ExtensionProfile("ogg", "Audio/Video", 1.0, 3.5 * MB, 0.8),
    ExtensionProfile("wav", "Audio/Video", 0.4, 12 * MB, 0.9),
    ExtensionProfile("avi", "Audio/Video", 0.4, 90 * MB, 1.0),
    ExtensionProfile("mp4", "Audio/Video", 0.6, 45 * MB, 1.1),
    # -- Binary --------------------------------------------------------------
    ExtensionProfile("o", "Binary", 7.0, 25 * KB, 1.5),
    ExtensionProfile("so", "Binary", 2.0, 120 * KB, 1.6),
    ExtensionProfile("jar", "Binary", 1.5, 700 * KB, 1.4),
    ExtensionProfile("msf", "Binary", 1.5, 40 * KB, 1.5),
    ExtensionProfile("pyc", "Binary", 3.0, 9 * KB, 1.3),
    ExtensionProfile("db", "Binary", 1.0, 300 * KB, 1.9),
    # -- Compressed ----------------------------------------------------------
    ExtensionProfile("zip", "Compressed", 1.2, 2.5 * MB, 1.8),
    ExtensionProfile("gz", "Compressed", 1.2, 1.5 * MB, 1.9),
    ExtensionProfile("tar", "Compressed", 0.5, 6 * MB, 1.7),
    ExtensionProfile("rar", "Compressed", 0.4, 8 * MB, 1.6),
    # -- Other ---------------------------------------------------------------
    ExtensionProfile("", "Other", 3.0, 15 * KB, 2.0),
    ExtensionProfile("bak", "Other", 1.0, 30 * KB, 1.9),
    ExtensionProfile("log", "Other", 1.5, 50 * KB, 2.0, compressible=True),
)


_CATEGORY_BY_EXTENSION = {p.extension: p.category for p in EXTENSION_PROFILES}

#: Extension of each default profile, indexed like :data:`EXTENSION_PROFILES`.
PROFILE_EXTENSIONS: tuple[str, ...] = tuple(p.extension for p in EXTENSION_PROFILES)


def category_of_extension(extension: str) -> str:
    """Map an extension to one of the 7 categories (unknown -> Other)."""
    return _CATEGORY_BY_EXTENSION.get(extension.lower().lstrip("."), "Other")


#: Memoised derived tables per profile sequence: (profiles list, normalised
#: probabilities, cumulative popularity floats, small-song profiles, plus the
#: array mirrors :func:`new_file_entries` uses: cumulative ndarray and the
#: lognormal mu and sigma per profile).
_PROFILE_TABLES: dict[tuple, tuple] = {}


def _profile_tables(profiles: tuple) -> tuple:
    tables = _PROFILE_TABLES.get(profiles)
    if tables is None:
        profile_list = list(profiles)
        weights = np.asarray([p.popularity for p in profile_list], dtype=float)
        probabilities = weights / weights.sum()
        cumulative = np.cumsum(probabilities).tolist()
        small_songs = [p for p in profile_list
                       if p.category == "Audio/Video" and p.median_size <= 16 * MB]
        mu = np.log([p.median_size for p in profile_list])
        sigma = np.asarray([p.sigma for p in profile_list])
        tables = _PROFILE_TABLES[profiles] = (profile_list, probabilities,
                                              cumulative, small_songs,
                                              np.asarray(cumulative), mu, sigma)
    return tables


class PopularContentPool:
    """A frozen pool of duplicated contents shared by every user.

    Cross-user file-level deduplication (Fig. 4a) needs users to upload the
    *same* content hashes.  The historical model grew a popularity pool
    lazily inside one global :class:`FileModel`; the plan/materialize
    generator split instead pre-builds the pool once during the global
    planning pass and hands the frozen pool to every per-user materializer,
    so independent per-user RNG streams still duplicate each other's
    contents.  Entries keep the rank-``Zipf`` popularity weights of the
    lazy-growth model: early entries attract the most duplicates, with a
    long tail of contents that gain only a couple of copies.
    """

    __slots__ = ("entries", "_cumulative")

    def __init__(self, entries: Sequence[tuple[str, int, str]],
                 zipf_exponent: float = 1.3):
        self.entries = list(entries)
        weights = np.arange(1, len(self.entries) + 1, dtype=float) ** (-zipf_exponent)
        self._cumulative = np.cumsum(weights)

    def __len__(self) -> int:
        return len(self.entries)

    @classmethod
    def build(cls, file_model: "FileModel", size: int,
              zipf_exponent: float = 1.3) -> "PopularContentPool":
        """Mint ``size`` popular contents using ``file_model``'s sampler."""
        return cls([file_model.mint_popular_entry() for _ in range(size)],
                   zipf_exponent=zipf_exponent)

    def pick(self, u: np.ndarray) -> np.ndarray:
        """Zipf-weighted entry indices for an array of uniforms in [0, 1)."""
        cumulative = self._cumulative
        index = cumulative.searchsorted(u * cumulative[-1], side="right")
        return np.minimum(index, len(self.entries) - 1)

    def sample(self, u: float) -> tuple[str, int, str]:
        """Zipf-weighted pick of ``(hash, size, extension)`` from ``u`` in [0,1)."""
        return self.entries[int(self.pick(u))]


def new_file_entries(pool: PopularContentPool, duplicate_fraction: float,
                     max_size_bytes: int, duplicate_u: np.ndarray,
                     pick_u: np.ndarray, normals: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    """:meth:`FileModel.sample_new_file` over arrays of pre-drawn lanes.

    Entry ``i`` duplicates a pool content when ``duplicate_u[i] <
    duplicate_fraction``; then ``pick[i]`` is its index in ``pool.entries``.
    Otherwise it is fresh content of profile ``-1 - pick[i]`` (an index
    into :data:`PROFILE_EXTENSIONS`) and lognormal size ``size[i]`` drawn
    from ``normals[i]``.  Content hashes are left to the caller, which
    mints one only for the entries it uses.
    """
    tables = _profile_tables(EXTENSION_PROFILES)
    cumulative, mu, sigma = tables[4], tables[5], tables[6]
    profile = np.searchsorted(cumulative, pick_u, side="right")
    np.minimum(profile, len(cumulative) - 1, out=profile)
    sizes = np.exp(mu[profile] + sigma[profile] * normals)
    np.maximum(sizes, 1, out=sizes)
    np.minimum(sizes, max_size_bytes, out=sizes)
    pick = np.where(duplicate_u < duplicate_fraction, pool.pick(pick_u),
                    -1 - profile)
    return pick, sizes.astype(np.int64)


#: Shape of the lognormal(0, sigma) size jitter of an update.
UPDATE_JITTER_SIGMA = 0.2


def update_jitter(normals: np.ndarray) -> np.ndarray:
    """:meth:`FileModel.sample_updated_content`'s size factors, from normals."""
    return np.exp(UPDATE_JITTER_SIGMA * normals)


class FileModel:
    """Samples file extensions, sizes and content hashes.

    Parameters
    ----------
    rng:
        Numpy random generator — or an :class:`RngPool` to share with other
        models drawing from the same stream (the model never creates its own
        generator so that the whole workload is reproducible from a seed).
    duplicate_fraction:
        Probability that a newly uploaded file duplicates content that some
        user already stores (file-level cross-user dedup, ratio ~0.17).
    duplicate_zipf_exponent:
        Zipf exponent governing the popularity of duplicated contents: a few
        contents (popular songs) account for a very large number of
        duplicates while ~80 % of contents have no duplicates at all.
    profiles:
        Extension profiles; defaults to :data:`EXTENSION_PROFILES`.
    shared_pool:
        Optional frozen :class:`PopularContentPool`.  When given, duplicate
        draws sample the shared pool instead of growing a private one.  The
        generator's materializer duplicates from the one pool built during
        planning (:func:`new_file_entries`), which is what keeps cross-user
        dedup alive across independent per-user RNG streams.
    hash_namespace:
        Prefix baked into minted content hashes so models drawing from
        independent streams (one per user) can never collide.
    """

    def __init__(self, rng: np.random.Generator | RngPool,
                 duplicate_fraction: float = 0.17,
                 duplicate_zipf_exponent: float = 1.3,
                 profiles: Sequence[ExtensionProfile] = EXTENSION_PROFILES,
                 max_size_bytes: int = 512 * 1024 * 1024,
                 shared_pool: PopularContentPool | None = None,
                 hash_namespace: str = ""):
        if not 0.0 <= duplicate_fraction < 1.0:
            raise ValueError("duplicate_fraction must be in [0, 1)")
        if not profiles:
            raise ValueError("at least one extension profile is required")
        if max_size_bytes <= 0:
            raise ValueError("max_size_bytes must be positive")
        self._pool = rng if isinstance(rng, RngPool) else RngPool(rng)
        self._max_size_bytes = max_size_bytes
        (self._profiles, self._probabilities, self._cumulative,
         self._small_songs) = _profile_tables(tuple(profiles))[:4]
        self._duplicate_fraction = duplicate_fraction
        self._zipf_exponent = duplicate_zipf_exponent
        # Pool of "popular" contents that attract duplicates.  The pool grows
        # lazily; its Zipf weights give a long tail of duplicates per hash.
        # The rank weight of an entry (rank^-s) never changes once assigned,
        # so the cumulative weights are maintained incrementally on growth
        # instead of being rebuilt for every draw.
        self._popular_contents: list[tuple[str, int, str]] = []
        self._zipf_cumulative: list[float] = []
        self._next_content_id = 0
        self._shared_pool = shared_pool
        self._hash_namespace = hash_namespace

    # ---------------------------------------------------------------- sizing
    def sample_profile(self) -> ExtensionProfile:
        """Sample an extension profile according to popularity."""
        index = bisect_right(self._cumulative, self._pool.random())
        if index >= len(self._profiles):
            index = len(self._profiles) - 1
        return self._profiles[index]

    def sample_size(self, profile: ExtensionProfile) -> int:
        """Sample a file size in bytes for the given extension profile."""
        mu = math.log(profile.median_size)
        size = self._pool.lognormal(mu, profile.sigma)
        return max(1, min(int(size), self._max_size_bytes))

    # --------------------------------------------------------------- content
    def _new_content_hash(self) -> str:
        self._next_content_id += 1
        return f"sha1:{self._hash_namespace}{self._next_content_id:016x}"

    def mint_popular_entry(self) -> tuple[str, int, str]:
        """Mint one popular-content entry ``(hash, size, extension)``.

        Popular duplicated contents skew towards media files (songs, videos
        shared across many users), which is what makes the byte-level dedup
        ratio (~0.17) much larger than one would get from duplicating
        typical (small) files.
        """
        profile = self.sample_profile()
        if profile.category not in ("Audio/Video", "Compressed") and self._pool.random() < 0.5:
            songs = self._small_songs
            profile = songs[self._pool.integers(len(songs))]
        return (self._new_content_hash(), self.sample_size(profile),
                profile.extension)

    def _sample_popular_content(self) -> tuple[str, int, str]:
        """Pick (or mint) a popular content entry ``(hash, size, extension)``."""
        if self._shared_pool is not None:
            return self._shared_pool.sample(self._pool.random())
        # Grow the pool occasionally so that early contents accumulate the
        # most duplicates (Zipf-like popularity) while a broad base of
        # contents ends up with only a couple of copies.
        if not self._popular_contents or self._pool.random() < 0.30:
            entry = self.mint_popular_entry()
            self._popular_contents.append(entry)
            rank = len(self._popular_contents)
            previous = self._zipf_cumulative[-1] if self._zipf_cumulative else 0.0
            self._zipf_cumulative.append(previous + rank ** (-self._zipf_exponent))
            return entry
        cumulative = self._zipf_cumulative
        index = bisect_right(cumulative, self._pool.random() * cumulative[-1])
        if index >= len(self._popular_contents):
            index = len(self._popular_contents) - 1
        return self._popular_contents[index]

    def sample_new_file(self) -> tuple[str, int, str]:
        """Sample ``(content_hash, size_bytes, extension)`` for a new file.

        With probability ``duplicate_fraction`` the content duplicates an
        existing popular content (same hash, same size); otherwise a fresh
        unique content is minted.
        """
        if self._pool.random() < self._duplicate_fraction:
            return self._sample_popular_content()
        profile = self.sample_profile()
        return self._new_content_hash(), self.sample_size(profile), profile.extension

    def sample_updated_content(self, extension: str, old_size: int) -> tuple[str, int]:
        """Sample ``(content_hash, size)`` for an update of an existing file.

        Updates keep the size in the same ballpark (metadata edits, source
        code changes) but always produce new content — U1 has no delta
        updates, so the full file is re-uploaded.
        """
        jitter = self._pool.lognormal(0.0, UPDATE_JITTER_SIGMA)
        new_size = max(1, int(old_size * jitter))
        return self._new_content_hash(), new_size
