"""Static system description and power-allocation variables.

All arithmetic inside the library is linear scale (watts for powers,
dimensionless channel gains); dB conversion happens only at the CLI
boundary. Every type here is immutable after construction.

Index conventions:
    * clusters are indexed m = 0..M-1,
    * users inside a cluster are indexed k = 0..K_m-1 with k = 0 the
      strongest user (large-scale gains sorted non-increasing),
    * downlink power rows carry the artificial-noise slot at position 0,
      so row m has length K_m + 1 and row[1 + k] is user k's power.

UplinkPower, DownlinkPower and EstimationQuality each hold one read-only
buffer in the flat layout of SystemConfig: `.flat()` returns it, and the
per-cluster rows `.p`, `.q` and `.rho` are views of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

__all__ = [
    "ClusterConfig",
    "SystemConfig",
    "UplinkPower",
    "DownlinkPower",
    "EstimationQuality",
    "validate_config",
    "compute_rho",
    "db_to_linear",
    "linear_to_db",
]


def db_to_linear(x_db: float) -> float:
    """Convert a dB value to linear scale: 10^(x/10); ValueError where
    that overflows a float."""
    try:
        return 10.0 ** (x_db / 10.0)
    except OverflowError:
        raise ValueError("%r dB is too large for a linear float" % x_db) from None


def linear_to_db(x: float) -> float:
    """Inverse of :func:`db_to_linear`; requires x > 0."""
    if x <= 0.0:
        raise ValueError("dB conversion requires a positive linear value, got %r" % x)
    return 10.0 * math.log10(x)


def _readonly(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _cut(x: np.ndarray, sizes) -> tuple[np.ndarray, ...]:
    """Consecutive views of x along its first axis, of the given lengths."""
    return tuple(x[end - k : end] for k, end in zip(sizes, accumulate(sizes)))


@dataclass(frozen=True)
class ClusterConfig:
    """Large-scale gains of one cluster, strongest user first."""

    betas: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "betas", _readonly(np.atleast_1d(self.betas)))

    @property
    def n_users(self) -> int:
        return int(self.betas.size)


@dataclass(frozen=True)
class SystemConfig:
    """Base-station / cluster layout and training parameters.

    Attributes:
        n_antennas: number of transmit antennas at the base station.
        clusters: per-cluster large-scale gains (strongest first).
        pilot_len: training-sequence length in samples; one orthogonal
            sequence per cluster, so pilot_len >= n_clusters.
        coherence_len: coherence-interval length in samples.
        eav_gain: eavesdropper large-scale gain (linear).
    """

    n_antennas: int
    clusters: tuple[ClusterConfig, ...]
    pilot_len: int
    coherence_len: int
    eav_gain: float

    def __post_init__(self):
        object.__setattr__(self, "clusters", tuple(self.clusters))

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    @cached_property
    def users_per_cluster(self) -> tuple[int, ...]:
        return tuple(c.n_users for c in self.clusters)

    @cached_property
    def total_users(self) -> int:
        return sum(self.users_per_cluster)

    @property
    def overhead(self) -> float:
        """Pilot-overhead prefactor 1 - tau/T applied to every rate."""
        return 1.0 - self.pilot_len / self.coherence_len

    def beta(self, m: int) -> np.ndarray:
        return self.clusters[m].betas

    # Flat per-user layout: users in cluster order, strongest first within
    # a cluster; the downlink vector puts each cluster's AN slot before
    # its users (see DownlinkPower.flat).

    @cached_property
    def cluster_of(self) -> np.ndarray:
        """Cluster index of each user."""
        return _readonly(np.repeat(np.arange(self.n_clusters), self.users_per_cluster), int)

    @cached_property
    def user_offsets(self) -> np.ndarray:
        """Flat index of each cluster's first user."""
        return _readonly(np.cumsum(self.users_per_cluster) - self.users_per_cluster, int)

    @cached_property
    def slot_offsets(self) -> np.ndarray:
        """Downlink-vector index of each cluster's AN slot."""
        return _readonly(self.user_offsets + np.arange(self.n_clusters), int)

    @cached_property
    def an_slots(self) -> np.ndarray:
        """Downlink-vector index of each user's cluster's AN slot."""
        return _readonly(self.slot_offsets[self.cluster_of], int)

    @cached_property
    def user_slots(self) -> np.ndarray:
        """Downlink-vector index of each user's power."""
        return _readonly(np.arange(self.total_users) + self.cluster_of + 1, int)

    @cached_property
    def flat_betas(self) -> np.ndarray:
        """Large-scale gain of each user."""
        return _readonly(np.concatenate([c.betas for c in self.clusters]))

    def split_users(self, flat: np.ndarray) -> tuple[np.ndarray, ...]:
        """Cut a flat per-user vector (or the rows of an array) into
        per-cluster views."""
        return _cut(flat, self.users_per_cluster)

    def cluster_totals(self, flat: np.ndarray) -> np.ndarray:
        """For each user, the sum of a flat per-user vector over its own
        cluster."""
        return np.add.reduceat(flat, self.user_offsets)[self.cluster_of]

    def stronger_sums(self, flat: np.ndarray) -> np.ndarray:
        """For each user, the sum of a flat per-user vector over the
        stronger users of its own cluster (zero for the strongest): a
        cumsum minus its value at the cluster start."""
        run = np.concatenate(([0.0], np.cumsum(flat)))
        return run[:-1] - run[self.user_offsets][self.cluster_of]

    def user_powers(self, q_flat: np.ndarray):
        """Per-user views of a flat downlink vector: (own power, own
        cluster's AN power, power of the stronger users of the own
        cluster, total power of every other cluster with its AN)."""
        own = q_flat[self.user_slots]
        an = q_flat[self.an_slots]
        # The other clusters' power from the per-cluster totals alone, so
        # that it is exactly zero on a one-cluster layout.
        totals = np.add.reduceat(q_flat, self.slot_offsets)
        return own, an, self.stronger_sums(own), (np.add.reduce(totals) - totals)[self.cluster_of]

    @cached_property
    def slot_indicators(self) -> tuple[np.ndarray, ...]:
        """The four `user_powers` views as 0/1 users x downlink-slots
        matrices: each user's own slot, its cluster's AN slot, the slots
        of the stronger users of its cluster and every slot of the other
        clusters."""
        slots = np.arange(self.total_users + self.n_clusters)
        slot_cluster = np.repeat(np.arange(self.n_clusters), np.add(self.users_per_cluster, 1))
        own = self.user_slots[:, None]
        an = self.an_slots[:, None]
        same = slot_cluster == self.cluster_of[:, None]
        masks = (slots == own, slots == an, same & (an < slots) & (slots < own), ~same)
        return tuple(_readonly(m) for m in masks)


def validate_config(cfg: SystemConfig) -> SystemConfig:
    """Check every structural invariant; return cfg unchanged if all hold.

    Raises ValueError naming the first violated invariant.
    """
    if cfg.n_antennas < 1:
        raise ValueError("n_antennas must be >= 1, got %d" % cfg.n_antennas)
    if cfg.n_clusters < 1:
        raise ValueError("at least one cluster is required")
    if not (cfg.coherence_len >= cfg.pilot_len >= cfg.n_clusters):
        raise ValueError(
            "need coherence_len >= pilot_len >= n_clusters, got T=%d, tau=%d, M=%d"
            % (cfg.coherence_len, cfg.pilot_len, cfg.n_clusters)
        )
    if not (math.isfinite(cfg.eav_gain) and cfg.eav_gain >= 0.0):
        raise ValueError("eav_gain must be finite and nonnegative, got %r" % cfg.eav_gain)
    for m, cluster in enumerate(cfg.clusters):
        betas = cluster.betas
        if betas.size < 1:
            raise ValueError("cluster %d has no users" % m)
        if not np.all(np.isfinite(betas)):
            raise ValueError("cluster %d has a non-finite large-scale gain" % m)
        if np.any(betas <= 0.0):
            raise ValueError("cluster %d has a non-positive large-scale gain" % m)
        if np.any(np.diff(betas) > 0.0):
            raise ValueError(
                "cluster %d gains must be sorted non-increasing (strongest first)" % m
            )
    return cfg


def _check(sizes, rules) -> None:
    """Raise ValueError for the first broken rule, naming the cluster of its
    first bad entry; a rule is (mask of the valid entries, message)."""
    for ok, message in rules:
        if not np.logical_and.reduce(ok):
            raise ValueError(message % np.searchsorted(np.cumsum(sizes), ok.argmin(), "right"))


def _total(rows) -> float:
    """The sum of each row (`np.add.reduce`) added in row order: what
    `_FlatRows.total` returns for its rows. Computing it from per-cluster
    totals of another reduction (`np.add.reduceat`) can differ in the
    last bits."""
    return float(sum(map(np.add.reduce, rows)))


class _FlatRows:
    """A read-only float buffer in layout order; the field `_field` holds its
    per-cluster rows as views, each with `_extra` slots before the users,
    and `_name` words the checks."""

    _field, _name, _extra = "", "", 0

    def __post_init__(self):
        rows = [np.atleast_1d(np.asarray(r, dtype=float)) for r in getattr(self, self._field)]
        self._adopt(np.concatenate(rows), tuple(r.size for r in rows))

    @classmethod
    def from_flat(cls, cfg: SystemConfig, flat):
        """Wrap a copy of a flat vector in layout order."""
        flat = np.array(flat, dtype=float)
        sizes = tuple(k + cls._extra for k in cfg.users_per_cluster)
        if flat.shape != (sum(sizes),):
            raise ValueError("flat vector has wrong length %d" % flat.size)
        return cls._wrap(flat, sizes)

    @classmethod
    def _wrap(cls, flat: np.ndarray, sizes: tuple[int, ...]):
        self = object.__new__(cls)
        self._adopt(flat, sizes)
        return self

    def _adopt(self, flat: np.ndarray, sizes: tuple[int, ...]) -> None:
        _check(sizes, self._rules(flat))
        flat.setflags(write=False)
        object.__setattr__(self, "_flat", flat)
        object.__setattr__(self, self._field, _cut(flat, sizes))

    def _rules(self, flat: np.ndarray):
        return [(np.isfinite(flat), self._name + " must be finite (cluster %d)"),
                (flat >= 0.0, self._name + " must be nonnegative (cluster %d)")]

    def flat(self) -> np.ndarray:
        """The buffer itself (read-only, not a copy)."""
        return self._flat

    def total(self) -> float:
        """Row sums added in cluster order, which the output bytes rely on."""
        return _total(getattr(self, self._field))


@dataclass(frozen=True)
class UplinkPower(_FlatRows):
    """Per-user uplink training powers, one row per cluster."""

    p: tuple[np.ndarray, ...]

    _field, _name = "p", "uplink power"

    @classmethod
    def full(cls, cfg: SystemConfig, value) -> "UplinkPower":
        """Every user at `value`: a scalar, or ragged rows of the layout's sizes."""
        sizes = cfg.users_per_cluster
        if np.isscalar(value):
            return cls._wrap(np.full(sum(sizes), float(value)), sizes)
        power = cls(tuple(value))
        if tuple(r.size for r in power.p) != sizes:
            raise ValueError("per-user spec rows must have sizes %s" % (sizes,))
        return power


@dataclass(frozen=True)
class DownlinkPower(_FlatRows):
    """Downlink transmit powers; row m is [AN slot, user 0, ..., user K_m-1]."""

    q: tuple[np.ndarray, ...]

    _field, _name, _extra = "q", "downlink power", 1

    def _adopt(self, flat: np.ndarray, sizes: tuple[int, ...]) -> None:
        short = [m for m, k in enumerate(sizes) if k < 2]
        if short:
            raise ValueError("downlink row %d needs an AN slot plus at least one user" % short[0])
        super()._adopt(flat, sizes)

    @classmethod
    def zeros(cls, cfg: SystemConfig) -> "DownlinkPower":
        return cls.from_flat(cfg, np.zeros(cfg.total_users + cfg.n_clusters))

    def an(self, m: int) -> float:
        return float(self.q[m][0])

    def user(self, m: int, k: int) -> float:
        return float(self.q[m][1 + k])

    def users(self, m: int) -> np.ndarray:
        return self.q[m][1:]

    def an_total(self) -> float:
        return float(sum(r[0] for r in self.q))


@dataclass(frozen=True)
class EstimationQuality(_FlatRows):
    """Fraction of each user's channel energy captured by its cluster
    estimate; 1 - rho is the estimation-error power."""

    rho: tuple[np.ndarray, ...]

    _field = "rho"

    def _rules(self, flat: np.ndarray):
        return [((flat >= 0.0) & (flat < 1.0), "rho must lie in [0, 1) (cluster %d)")]


def compute_rho(cfg: SystemConfig, p: UplinkPower) -> EstimationQuality:
    """Estimation quality of each user from the uplink training powers.

    rho_{m,k} = P_{m,k} beta_{m,k} tau / (1 + sum_i P_{m,i} beta_{m,i} tau),
    so within a cluster the rho values sum to strictly less than one.
    """
    return EstimationQuality._wrap(_rho(cfg, p.flat()), cfg.users_per_cluster)


def _rho(cfg: SystemConfig, p_flat: np.ndarray) -> np.ndarray:
    """`compute_rho`'s estimation qualities of flat uplink powers, flat
    and unchecked."""
    energy = p_flat * cfg.flat_betas * cfg.pilot_len
    return energy / (1.0 + cfg.cluster_totals(energy))
