"""Simple undirected graphs: benchmark generators, perturbation, DIMACS I/O.

All randomness flows through numpy's PCG64 generator seeded explicitly, so
every generated graph is bit-reproducible across runs and platforms.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence, TextIO, Union

import numpy as np

from .errors import FormatError

PathLike = Union[str, Path]


def _rng(seed) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


# The set bit positions of each byte value, ascending.
_BYTE_BITS = [tuple(i for i in range(8) if byte >> i & 1) for byte in range(256)]


def set_bits(mask: int) -> list[int]:
    """Set bit positions of ``mask``, ascending, read off its bytes lowest
    first; raises ValueError on a negative mask."""
    if mask < 0:
        raise ValueError(f"mask must be nonnegative, got {mask}")
    data = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    bases = range(0, 8 * len(data), 8)
    return [base + i for base, byte in zip(bases, data) for i in _BYTE_BITS[byte]]


@dataclass(frozen=True)
class Graph:
    """Vertices 0..n-1 with a canonical sorted tuple of undirected edges.
    A :meth:`_from_bits` graph derives ``edges`` only when it is first read."""

    n: int
    edges: tuple[tuple[int, int], ...]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Canonicalize: order endpoints, sort, drop duplicates."""
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        canon = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            canon.add((u, v) if u < v else (v, u))
        return cls(n, tuple(sorted(canon)))

    @classmethod
    def _from_bits(cls, bits: Sequence[int]) -> "Graph":
        """Graph with neighbour bitmask ``bits[v]`` per vertex v.  Not checked:
        the caller passes symmetric masks without self-loops."""
        g = object.__new__(cls)
        g.__dict__.update(n=len(bits), adjacency_bits=tuple(bits))
        return g

    def __getattr__(self, name):
        # Derives a _from_bits graph's edges: u with its neighbours above u.
        bits = self.__dict__.get("adjacency_bits")
        if name != "edges" or bits is None:
            raise AttributeError(name)
        edges = tuple((u, v) for u, b in enumerate(bits) for v in set_bits(b & -(2 << u)))
        object.__setattr__(self, "edges", edges)
        return edges

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[frozenset, ...]:
        adj = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return tuple(frozenset(s) for s in adj)

    @cached_property
    def adjacency_bits(self) -> tuple[int, ...]:
        """Neighbor bitmask per vertex (for clique search)."""
        bits = [0] * self.n
        for u, v in self.edges:
            bits[u] |= 1 << v
            bits[v] |= 1 << u
        return tuple(bits)

    def _check_vertex(self, v) -> int:
        v = operator.index(v)
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range for n={self.n}")
        return v

    def has_edge(self, u: int, v: int) -> bool:
        return self._check_vertex(v) in self.adjacency[self._check_vertex(u)]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def complement(self) -> "Graph":
        present = np.zeros((self.n, self.n), dtype=bool)
        for u, v in self.edges:
            present[u, v] = True
        iu, iv = np.triu_indices(self.n, 1)
        keep = ~present[iu, iv]
        return Graph(self.n, tuple(zip(iu[keep].tolist(), iv[keep].tolist())))

    def induced(self, vertices: Iterable[int]) -> tuple["Graph", tuple[int, ...]]:
        """Induced subgraph over sorted ``vertices`` plus the label map."""
        labels = tuple(sorted(set(vertices)))
        index = {v: k for k, v in enumerate(labels)}
        edges = [
            (index[u], index[v])
            for u, v in self.edges
            if u in index and v in index
        ]
        return Graph(len(labels), tuple(sorted(edges))), labels

    def is_clique(self, vertices: Iterable[int]) -> bool:
        vs = {self._check_vertex(v) for v in vertices}
        mask = sum(1 << v for v in vs)
        adj = self.adjacency_bits
        return all((adj[v] | 1 << v) & mask == mask for v in vs)


def gen_hamming(bits: int, d: int) -> Graph:
    """Hamming graph: 2**bits bit-string vertices, edge iff distance >= d."""
    if not 1 <= d <= bits <= 16:
        raise ValueError("need 1 <= d <= bits <= 16")
    n = 1 << bits
    table = np.array([bin(m).count("1") for m in range(n)], dtype=np.int64)
    edges: list[tuple[int, int]] = []
    for u in range(n - 1):
        v = np.arange(u + 1, n)
        hits = v[table[u ^ v] >= d]
        edges.extend((u, int(x)) for x in hits)
    return Graph(n, tuple(edges))


def gen_cfat(n: int, c: int) -> Graph:
    """c-fat ring graph: floor(n/(c*ln n)) groups on a ring, first (n mod k)
    groups one vertex larger; vertices in the same or adjacent groups are
    connected.  Reproduces the published DIMACS c-fat instances' edge counts
    and clique sizes for all (n, c) used there."""
    if n < 1 or c < 1:
        raise ValueError("need n >= 1 and c >= 1")
    if n == 1:
        return Graph(1, ())
    k = max(1, int(n / (c * math.log(n))))
    base, extra = divmod(n, k)
    group = np.repeat(np.arange(k), [base + 1] * extra + [base] * (k - extra))
    iu, iv = np.triu_indices(n, 1)
    gap = group[iv] - group[iu]
    mask = (gap <= 1) | (gap == k - 1)
    return Graph(n, tuple(zip(iu[mask].tolist(), iv[mask].tolist())))


def _gnp(n: int, p: float, seed) -> Graph:
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if n < 2:
        return Graph(n, ())
    iu, iv = np.triu_indices(n, 1)
    mask = _rng(seed).random(len(iu)) < p
    return Graph(n, tuple(zip(iu[mask].tolist(), iv[mask].tolist())))


def gen_g(n: int, density_pct, seed) -> Graph:
    """Erdős–Rényi graph with edge probability density_pct/100."""
    if not 0 <= density_pct <= 100:
        raise ValueError("density_pct must be in [0, 100]")
    return _gnp(n, float(density_pct) / 100.0, seed)


def gen_gnp(n: int, p: float, seed) -> Graph:
    """Erdős–Rényi graph with edge probability p in [0, 1]."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    return _gnp(n, float(p), seed)


def _square_distance_cdf(r: float) -> float:
    # P(|X - Y| <= r) for X, Y uniform on the unit square, r <= 1.
    return math.pi * r * r - 8.0 * r**3 / 3.0 + r**4 / 2.0


def _radius_for_density(target: float) -> float:
    if target <= 0.0:
        return 0.0
    if target >= _square_distance_cdf(1.0):
        # Denser than the closed form covers (~97.5%); connect everything.
        return math.sqrt(2.0)
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = (lo + hi) / 2.0
        if _square_distance_cdf(mid) < target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def gen_u(n: int, density_pct, seed) -> Graph:
    """Random geometric graph on the unit square; the connection radius is
    calibrated so the expected edge density equals density_pct/100."""
    if not 0 <= density_pct <= 100:
        raise ValueError("density_pct must be in [0, 100]")
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    radius = _radius_for_density(float(density_pct) / 100.0)
    points = _rng(seed).random((n, 2))
    if n < 2 or radius == 0.0:
        return Graph(n, ())
    iu, iv = np.triu_indices(n, 1)
    diff = points[iu] - points[iv]
    mask = (diff * diff).sum(axis=1) <= radius * radius
    return Graph(n, tuple(zip(iu[mask].tolist(), iv[mask].tolist())))


def perturb(g: Graph, p: float, mode: str, seed) -> Graph:
    """Insert each non-edge (mode="insert") or delete each edge
    (mode="delete") independently with probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    if mode not in ("insert", "delete"):
        raise ValueError(f"mode must be 'insert' or 'delete', got {mode!r}")
    rng = _rng(seed)
    if mode == "delete":
        keep = rng.random(g.num_edges) >= p
        edges = tuple(e for e, k in zip(g.edges, keep.tolist()) if k)
        return Graph(g.n, edges)
    comp = g.complement()
    add = rng.random(comp.num_edges) < p
    added = tuple(e for e, k in zip(comp.edges, add.tolist()) if k)
    return Graph(g.n, tuple(sorted(g.edges + added)))


# --- DIMACS clique format ----------------------------------------------------


def _open_for(path_or_file, mode: str):
    if isinstance(path_or_file, (str, Path)):
        return open(path_or_file, mode), True
    return path_or_file, False


def read_dimacs(path_or_file: PathLike | TextIO) -> Graph:
    """Read `p edge n m` / `e u v` (1-based) format; comments start with c.

    Duplicate edges warn and dedupe; out-of-range vertices and self-loops
    are errors.
    """
    f, should_close = _open_for(path_or_file, "r")
    try:
        n = None
        declared = None
        edges: set[tuple[int, int]] = set()
        dupes = 0
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            parts = line.split()
            if parts[0] == "p":
                if n is not None:
                    raise FormatError("duplicate problem line", lineno)
                if len(parts) != 4 or parts[1] not in ("edge", "edges", "col"):
                    raise FormatError(f"malformed problem line {line!r}", lineno)
                try:
                    n, declared = int(parts[2]), int(parts[3])
                except ValueError:
                    raise FormatError(f"bad counts in {line!r}", lineno) from None
                if n < 0 or declared < 0:
                    raise FormatError("negative counts", lineno)
            elif parts[0] == "e":
                if n is None:
                    raise FormatError("edge before problem line", lineno)
                if len(parts) != 3:
                    raise FormatError(f"malformed edge line {line!r}", lineno)
                try:
                    u, v = int(parts[1]), int(parts[2])
                except ValueError:
                    raise FormatError(f"bad vertices in {line!r}", lineno) from None
                if not (1 <= u <= n and 1 <= v <= n):
                    raise FormatError(f"vertex out of range in {line!r}", lineno)
                if u == v:
                    raise FormatError(f"self-loop in {line!r}", lineno)
                key = (u - 1, v - 1) if u < v else (v - 1, u - 1)
                if key in edges:
                    dupes += 1
                else:
                    edges.add(key)
            else:
                raise FormatError(f"unrecognized line {line!r}", lineno)
        if n is None:
            raise FormatError("missing problem line")
        if dupes:
            warnings.warn(f"{dupes} duplicate edge line(s) ignored", stacklevel=2)
        if declared is not None and declared != len(edges) + dupes and declared != len(edges):
            warnings.warn(
                f"header declares {declared} edges, file has {len(edges)}",
                stacklevel=2,
            )
        return Graph(n, tuple(sorted(edges)))
    finally:
        if should_close:
            f.close()


def write_dimacs(g: Graph, path_or_file: PathLike | TextIO) -> None:
    f, should_close = _open_for(path_or_file, "w")
    try:
        f.write(f"p edge {g.n} {g.num_edges}\n")
        for u, v in g.edges:
            f.write(f"e {u + 1} {v + 1}\n")
    finally:
        if should_close:
            f.close()
