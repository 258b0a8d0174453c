"""Static system description and power-allocation variables.

All arithmetic inside the library is linear scale (watts for powers,
dimensionless channel gains); dB conversion happens only at the CLI
boundary. Every type here is immutable after construction so instances
can be shared freely across parallel workers.

Index conventions:
    * clusters are indexed m = 0..M-1,
    * users inside a cluster are indexed k = 0..K_m-1 with k = 0 the
      strongest user (large-scale gains sorted non-increasing),
    * downlink power rows carry the artificial-noise slot at position 0,
      so row m has length K_m + 1 and row[1 + k] is user k's power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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
    """Convert a dB value to linear scale: 10^(x/10)."""
    return 10.0 ** (x_db / 10.0)


def linear_to_db(x: float) -> float:
    """Inverse of :func:`db_to_linear`; requires x > 0."""
    if x <= 0.0:
        raise ValueError("dB conversion requires a positive linear value, got %r" % x)
    return 10.0 * math.log10(x)


def _readonly(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _ragged(rows) -> tuple[np.ndarray, ...]:
    return tuple(_readonly(np.atleast_1d(r)) for r in rows)


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

    @property
    def users_per_cluster(self) -> tuple[int, ...]:
        return tuple(c.n_users for c in self.clusters)

    @property
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
    def user_slots(self) -> np.ndarray:
        """Downlink-vector index of each user's power."""
        return _readonly(np.arange(self.total_users) + self.cluster_of + 1, int)

    @cached_property
    def flat_betas(self) -> np.ndarray:
        """Large-scale gain of each user."""
        return _readonly(np.concatenate([c.betas for c in self.clusters]))

    def split_users(self, flat: np.ndarray) -> tuple[np.ndarray, ...]:
        """Cut a flat per-user vector into per-cluster rows."""
        return tuple(np.split(flat, self.user_offsets[1:]))

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
        an = q_flat[self.slot_offsets][self.cluster_of]
        others = q_flat.sum() - np.add.reduceat(q_flat, self.slot_offsets)
        return own, an, self.stronger_sums(own), others[self.cluster_of]

    @cached_property
    def slot_indicators(self) -> tuple[np.ndarray, ...]:
        """The four `user_powers` views as 0/1 users x downlink-slots
        matrices: each user's own slot, its cluster's AN slot, the slots
        of the stronger users of its cluster and every slot of the other
        clusters."""
        slots = np.arange(self.total_users + self.n_clusters)
        slot_cluster = np.repeat(np.arange(self.n_clusters), np.add(self.users_per_cluster, 1))
        own = self.user_slots[:, None]
        an = self.slot_offsets[self.cluster_of][:, None]
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


class _RaggedPower:
    """Shared helpers for ragged per-cluster power containers."""

    _rows_attr = ""

    def _rows(self) -> tuple[np.ndarray, ...]:
        return getattr(self, self._rows_attr)

    def flat(self) -> np.ndarray:
        """Concatenate cluster rows into one vector (solver layout)."""
        return np.concatenate([np.asarray(r) for r in self._rows()])

    def total(self) -> float:
        return float(sum(r.sum() for r in self._rows()))


@dataclass(frozen=True)
class UplinkPower(_RaggedPower):
    """Per-user uplink training powers, one row per cluster."""

    p: tuple[np.ndarray, ...]

    _rows_attr = "p"

    def __post_init__(self):
        rows = _ragged(self.p)
        for m, r in enumerate(rows):
            if not np.all(np.isfinite(r)):
                raise ValueError("uplink power must be finite (cluster %d)" % m)
            if np.any(r < 0.0):
                raise ValueError("uplink power must be nonnegative (cluster %d)" % m)
        object.__setattr__(self, "p", rows)

    @classmethod
    def full(cls, cfg: SystemConfig, value) -> "UplinkPower":
        """Every user at `value`; accepts a scalar or a ragged per-user spec."""
        if np.isscalar(value):
            return cls(tuple(np.full(k, float(value)) for k in cfg.users_per_cluster))
        return cls(tuple(np.asarray(v, dtype=float) for v in value))

    @classmethod
    def from_flat(cls, cfg: SystemConfig, flat) -> "UplinkPower":
        flat = np.asarray(flat, dtype=float)
        if flat.size != cfg.total_users:
            raise ValueError("flat vector has wrong length %d" % flat.size)
        return cls(cfg.split_users(flat))

    def check_budget(self, p_max) -> None:
        caps = UplinkPower.full_like(self, p_max)
        for m, (row, cap) in enumerate(zip(self.p, caps.p)):
            if np.any(row > cap + 1e-12):
                raise ValueError("uplink power exceeds its cap in cluster %d" % m)

    @classmethod
    def full_like(cls, other: "UplinkPower", value) -> "UplinkPower":
        if np.isscalar(value):
            return cls(tuple(np.full(r.size, float(value)) for r in other.p))
        return cls(tuple(np.asarray(v, dtype=float) for v in value))


@dataclass(frozen=True)
class DownlinkPower(_RaggedPower):
    """Downlink transmit powers; row m is [AN slot, user 0, ..., user K_m-1]."""

    q: tuple[np.ndarray, ...]

    _rows_attr = "q"

    def __post_init__(self):
        rows = _ragged(self.q)
        for m, r in enumerate(rows):
            if r.size < 2:
                raise ValueError(
                    "downlink row %d needs an AN slot plus at least one user" % m
                )
            if not np.all(np.isfinite(r)):
                raise ValueError("downlink power must be finite (cluster %d)" % m)
            if np.any(r < 0.0):
                raise ValueError("downlink power must be nonnegative (cluster %d)" % m)
        object.__setattr__(self, "q", rows)

    @classmethod
    def zeros(cls, cfg: SystemConfig) -> "DownlinkPower":
        return cls(tuple(np.zeros(k + 1) for k in cfg.users_per_cluster))

    @classmethod
    def from_flat(cls, cfg: SystemConfig, flat) -> "DownlinkPower":
        flat = np.asarray(flat, dtype=float)
        if flat.size != cfg.total_users + cfg.n_clusters:
            raise ValueError("flat vector has wrong length %d" % flat.size)
        return cls(tuple(np.split(flat, cfg.slot_offsets[1:])))

    def an(self, m: int) -> float:
        return float(self.q[m][0])

    def user(self, m: int, k: int) -> float:
        return float(self.q[m][1 + k])

    def users(self, m: int) -> np.ndarray:
        return self.q[m][1:]

    def an_total(self) -> float:
        return float(sum(r[0] for r in self.q))

    def check_budget(self, q_max: float) -> None:
        if self.total() > q_max + 1e-9:
            raise ValueError(
                "downlink power %.6g exceeds the budget %.6g" % (self.total(), q_max)
            )


@dataclass(frozen=True)
class EstimationQuality:
    """Fraction of each user's channel energy captured by its cluster
    estimate; 1 - rho is the estimation-error power."""

    rho: tuple[np.ndarray, ...]

    def __post_init__(self):
        rows = _ragged(self.rho)
        for m, r in enumerate(rows):
            if np.any(r < 0.0) or np.any(r >= 1.0):
                raise ValueError("rho must lie in [0, 1) (cluster %d)" % m)
        object.__setattr__(self, "rho", rows)


def compute_rho(cfg: SystemConfig, p: UplinkPower) -> EstimationQuality:
    """Estimation quality of each user from the uplink training powers.

    rho_{m,k} = P_{m,k} beta_{m,k} tau / (1 + sum_i P_{m,i} beta_{m,i} tau),
    so within a cluster the rho values sum to strictly less than one.
    """
    energy = p.flat() * cfg.flat_betas * cfg.pilot_len
    rho = energy / (1.0 + cfg.cluster_totals(energy))
    return EstimationQuality(cfg.split_users(rho))
