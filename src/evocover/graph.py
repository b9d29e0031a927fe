"""Weighted graph model, residual graphs, instance generators and text I/O.

Graphs are undirected, vertices carry positive integer weights, and edges
are stored normalized (u < v) and sorted so that serialization and residual
edge ordering are canonical. Instances are immutable after construction.
"""

from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np


class GraphFormatError(ValueError):
    """Malformed instance text (bad header, bad line, inconsistent counts)."""


class _GraphFields(NamedTuple):
    n: int
    weights: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]


class WeightedGraph(_GraphFields):
    """Immutable weighted graph instance.

    n: number of vertices (>= 1), indexed 0..n-1.
    weights: per-vertex positive integer weights.
    edges: normalized (u < v), sorted, duplicate-free undirected edges.

    A NamedTuple subclass without ``__slots__``: the instance ``__dict__``
    holds the cached properties below.
    """

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def w_max(self) -> int:
        return max(self.weights)

    @cached_property
    def _w64(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=np.int64)

    @cached_property
    def _arcs(self) -> tuple[np.ndarray, np.ndarray]:
        """(tails, heads) of every edge in both directions."""
        u, v = np.asarray(self.edges, dtype=np.intp).reshape(-1, 2).T
        return np.concatenate((u, v)), np.concatenate((v, u))

    @cached_property
    def _byte_neighbours(self) -> list[list[int]]:
        """t[k][b]: the union of the neighbour masks (sum 2^y over the
        neighbours y) of the vertices 8k + i over the 1 bits i of the byte b,
        one table of 256 per byte of a code."""
        # each vertex's mask, then 0 for the last byte's bits past n - 1
        nbrs = [sum(1 << y for _, y in arcs) for arcs in self._double_cover[3]] + [0] * 7
        tables = []
        for k in range(0, self.n, 8):
            t = [0] * 256
            for b in range(1, 256):  # b with its lowest bit cleared, then that bit
                t[b] = t[b & b - 1] | nbrs[k + (b & -b).bit_length() - 1]
            tables.append(t)
        return tables

    @cached_property
    def _double_cover(self) -> tuple:
        """(weights, tail, head, out, inn): the double cover's topology, read
        only by every ``DoubleCover`` of this graph. Edge arc a runs tail[a]_L
        -> head[a]_R, for both directions of every edge; out[x] lists x's
        arcs as (a, y), and inn[y] as (a, x)."""
        tail = [x for u, v in self.edges for x in (u, v)]
        head = [y for u, v in self.edges for y in (v, u)]
        out = [[] for _ in range(self.n)]
        inn = [[] for _ in range(self.n)]
        for a, (x, y) in enumerate(zip(tail, head)):
            out[x].append((a, y))
            inn[y].append((a, x))
        return list(self.weights), tail, head, out, inn


class ResidualGraph(NamedTuple):
    """The graph left after deleting the vertices selected by a genotype.

    kept: original indices of the surviving vertices, ascending (this is the
        back-map: residual vertex i corresponds to original vertex kept[i]).
    edges: the uncovered edges, expressed in residual (kept) index space,
        normalized and sorted.
    """

    original_n: int
    kept: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    @property
    def num_vertices(self) -> int:
        return len(self.kept)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def original_edges(self) -> tuple[tuple[int, int], ...]:
        """The uncovered edges in original index space."""
        k = self.kept
        return tuple((k[u], k[v]) for u, v in self.edges)


def build_graph(n: int, weights: Sequence[int], edges: Iterable[tuple[int, int]]) -> WeightedGraph:
    """Validate and build an immutable instance.

    Weights must be positive integers; self-loops and out-of-range endpoints
    are rejected. Parallel edges collapse to a single edge.
    """
    if n < 1:
        raise ValueError(f"vertex count must be positive, got {n}")
    weights = [int(w) for w in weights]
    if len(weights) != n:
        raise ValueError(f"expected {n} weights, got {len(weights)}")
    for i, w in enumerate(weights):
        if w < 1:
            raise ValueError(f"weight of vertex {i} must be >= 1, got {w}")
    norm = set()
    for u, v in edges:
        u, v = int(u), int(v)
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        norm.add((u, v) if u < v else (v, u))
    return WeightedGraph(n=n, weights=tuple(weights), edges=tuple(sorted(norm)))


# ---------------------------------------------------------------------------
# Genotypes
# ---------------------------------------------------------------------------

def as_genotype(x: Sequence[int] | np.ndarray, n: int) -> np.ndarray:
    """Coerce a 0/1 sequence to a uint8 bit array of length n. Any entry
    not equal to 0 or 1 is a ValueError, not cast; bools and 0.0/1.0 pass."""
    bits = np.asarray(x)
    if bits.ndim != 1 or bits.size != n:
        raise ValueError(f"genotype length {bits.size} does not match n={n}")
    if bits.dtype != np.uint8 and ((bits == 0) | (bits == 1)).all():
        bits = bits.astype(np.uint8)
    if bits.dtype != np.uint8 or bits.size and bits.max() > 1:
        raise ValueError("genotype entries must be 0 or 1")
    return bits


def genotype_from_string(s: str, n: int) -> np.ndarray:
    if len(s) != n or set(s) - {"0", "1"}:
        raise ValueError(f"expected a 0/1 string of length {n}, got {s!r}")
    return np.frombuffer(s.encode("ascii"), dtype=np.uint8) - ord("0")


def genotype_to_string(bits: np.ndarray) -> str:
    return "".join("1" if b else "0" for b in bits)


def cost(g: WeightedGraph, x: Sequence[int] | np.ndarray) -> int:
    """Total weight of the selected vertices."""
    bits = as_genotype(x, g.n)
    return int(g._w64 @ bits)


def residual(g: WeightedGraph, x: Sequence[int] | np.ndarray) -> ResidualGraph:
    """Delete the selected vertices and every edge they cover."""
    bits = as_genotype(x, g.n)
    kept = tuple(int(i) for i in np.flatnonzero(bits == 0))
    pos = {orig: i for i, orig in enumerate(kept)}
    edges = tuple(
        (pos[u], pos[v]) for u, v in g.edges if not bits[u] and not bits[v]
    )
    return ResidualGraph(original_n=g.n, kept=kept, edges=edges)


# ---------------------------------------------------------------------------
# Instance generators
# ---------------------------------------------------------------------------

def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def _uniforms(bit_generator: np.random.BitGenerator, k: int) -> np.ndarray:
    """k uniforms in [0, 1): the top 53 bits of raw outputs (NEP 19 keeps them), times 2^-53."""
    return (bit_generator.random_raw(k) >> 11) * 2.0 ** -53


def _draw_weights(rng: np.random.Generator, n: int, w_max: int) -> list[int]:
    if w_max < 1:
        raise ValueError(f"w_max must be >= 1, got {w_max}")
    return [int(w) for w in rng.integers(1, w_max, size=n, endpoint=True)]


_GNP_BLOCK = 1 << 16  # uniforms per draw: one draw for every n <= 362


def gnp(n: int, p: float, w_max: int = 1, seed: int = 0) -> WeightedGraph:
    """Erdos-Renyi G(n, p) with uniform random integer weights in [1, w_max].

    Pair (i, j), i < j, is an edge iff its uniform draw is below p; the pairs
    are drawn in row-major order, in blocks of at most ``_GNP_BLOCK``, which
    consumes the stream as one scalar draw per pair would, in O(n + m) memory.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"p must be in [0, 1], got {p}")
    rng = _rng(seed)
    weights = _draw_weights(rng, n, w_max)
    rows = np.arange(n - 1)
    starts = rows * (2 * n - 1 - rows) // 2  # offset of pair (i, i + 1)
    total = n * (n - 1) // 2
    edges = []
    for b in range(0, total, _GNP_BLOCK):
        hits = np.flatnonzero(_uniforms(rng.bit_generator, min(_GNP_BLOCK, total - b)) < p) + b
        i = starts.searchsorted(hits, "right") - 1
        edges += zip(i.tolist(), (hits - starts[i] + i + 1).tolist())
    return build_graph(n, weights, edges)


def path(n: int, w_max: int = 1, seed: int = 0) -> WeightedGraph:
    """Path on n vertices (n-1 edges)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = _rng(seed)
    weights = _draw_weights(rng, n, w_max)
    return build_graph(n, weights, [(i, i + 1) for i in range(n - 1)])


def star(k: int, w_max: int = 1, seed: int = 0) -> WeightedGraph:
    """Star with center 0 and k leaves (n = k + 1)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    rng = _rng(seed)
    weights = _draw_weights(rng, k + 1, w_max)
    return build_graph(k + 1, weights, [(0, i) for i in range(1, k + 1)])


def complete_bipartite(a: int, b: int, w_max: int = 1, seed: int = 0) -> WeightedGraph:
    """K_{a,b}: left part 0..a-1, right part a..a+b-1."""
    if a < 1 or b < 1:
        raise ValueError(f"both sides must be >= 1, got {a}, {b}")
    rng = _rng(seed)
    weights = _draw_weights(rng, a + b, w_max)
    edges = [(i, a + j) for i in range(a) for j in range(b)]
    return build_graph(a + b, weights, edges)


GENERATOR_KINDS = ("gnp", "path", "star", "complete-bipartite")


def gen_instance(kind: str, params: dict, w_max: int = 1, seed: int = 0) -> WeightedGraph:
    """Dispatch on generator kind; deterministic for fixed (kind, params, seed)."""
    if kind == "gnp":
        return gnp(int(params["n"]), float(params["p"]), w_max, seed)
    if kind == "path":
        return path(int(params["n"]), w_max, seed)
    if kind == "star":
        return star(int(params["k"]), w_max, seed)
    if kind == "complete-bipartite":
        return complete_bipartite(int(params["a"]), int(params["b"]), w_max, seed)
    raise ValueError(f"unknown generator kind {kind!r}")


# ---------------------------------------------------------------------------
# Text instance format
# ---------------------------------------------------------------------------
#   p wvc <n> <m>
#   v <index> <weight>      (n lines, 0-based)
#   e <u> <v>               (m lines, u < v)
# Blank lines and lines starting with '#' are ignored.

def serialize_instance(g: WeightedGraph) -> str:
    lines = [f"p wvc {g.n} {g.m}"]
    lines.extend(f"v {i} {w}" for i, w in enumerate(g.weights))
    lines.extend(f"e {u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def parse_instance(text: str) -> WeightedGraph:
    n = m = None
    weights: dict[int, int] = {}
    edges: list[tuple[int, int]] = []
    seen_edges: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            if parts[0] == "p":
                if n is not None:
                    raise ValueError("duplicate header")
                if len(parts) != 4 or parts[1] != "wvc":
                    raise ValueError("expected 'p wvc <n> <m>'")
                n, m = int(parts[2]), int(parts[3])
            elif parts[0] == "v":
                if n is None:
                    raise ValueError("vertex line before header")
                if len(parts) != 3:
                    raise ValueError("expected 'v <index> <weight>'")
                i, w = int(parts[1]), int(parts[2])
                if not 0 <= i < n:
                    raise ValueError(f"vertex index {i} out of range")
                if i in weights:
                    raise ValueError(f"duplicate weight for vertex {i}")
                if w < 1:
                    raise ValueError("weight must be >= 1")
                weights[i] = w
            elif parts[0] == "e":
                if n is None:
                    raise ValueError("edge line before header")
                if len(parts) != 3:
                    raise ValueError("expected 'e <u> <v>'")
                u, v = int(parts[1]), int(parts[2])
                if u == v:
                    raise ValueError(f"self-loop at {u}")
                if not (0 <= u < n and 0 <= v < n):
                    raise ValueError(f"edge ({u}, {v}) out of range")
                key = (u, v) if u < v else (v, u)
                if key in seen_edges:
                    raise ValueError(f"duplicate edge ({u}, {v})")
                seen_edges.add(key)
                edges.append(key)
            else:
                raise ValueError(f"unknown record {parts[0]!r}")
        except ValueError as exc:  # every message gets its line number here
            raise GraphFormatError(f"line {lineno}: {exc}") from exc
    if n is None:
        raise GraphFormatError("missing 'p wvc <n> <m>' header")
    if len(weights) != n:
        raise GraphFormatError(f"expected {n} weight lines, got {len(weights)}")
    if m != len(edges):
        raise GraphFormatError(f"header announces {m} edges, got {len(edges)}")
    return build_graph(n, [weights[i] for i in range(n)], edges)


def load_instance(path: str) -> WeightedGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())


def save_instance(g: WeightedGraph, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize_instance(g))
