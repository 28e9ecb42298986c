"""Stratified synthetic-graph builder.

All three dataset families (Wikipedia wikilinks, Amazon co-purchases,
Twitter interactions) share one topology that reproduces the paper's
phenomena, with three node strata:

- **hubs** — globally central nodes ("United States", the Harry Potter
  volumes): they receive one-way links from a per-hub fraction of the
  background, so they top PageRank (in planted order) and leak
  random-walk mass into Personalized PageRank;
- **clusters** — a reference node plus topically related members with
  dense *reciprocal* links (short cycles), which is what CycleRank
  measures;
- **background** — random filler nodes, split into a *front* half and a
  *back* half.

The front/back split enforces one structural invariant that makes the
table shape-checks deterministic: **every simple cycle through a
reference node consists solely of that cluster's nodes, for any K.**
Edges into the cluster from outside come only from the back half
(``bg_back → ref``, and best-seller fan-in to "popular members"), while
every edge out of the cluster lands on hubs (which have no out-edges at
all) or in the front half — and background→background links never cross
halves. So once a path leaves a cluster it can never re-enter it, and
CycleRank's hub contamination is exactly 0 by construction. This mirrors the real-graph
phenomenon the paper describes: globally central pages receive links
from everywhere but rarely link back, so cycles don't cross into them.

PPR, by contrast, follows the one-way cluster→hub links, so its hub
contamination is positive — the paper's Section I observation.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.graph.graph import DiGraph


@dataclass(frozen=True)
class ClusterSpec:
    """One topical cluster.

    Attributes:
        ref: the reference node's name (e.g. "Freddie Mercury").
        members: related-node names, in intended relevance order —
            earlier members get denser in-cluster linkage so they rank
            higher under CycleRank, mirroring the paper's row order.
        hub_links: indices into the hub list that every cluster node
            links to (one-way). Defaults to the top two hubs.
        n_guaranteed: this many leading members get deterministic
            reciprocal links with the reference (so the top-k is never
            starved at small scale).
    """

    ref: str
    members: tuple[str, ...]
    hub_links: tuple[int, ...] = (0, 1)
    n_guaranteed: int = 5


@dataclass(frozen=True)
class LabeledGraph:
    """A generated graph plus its planted ground truth.

    Attributes:
        graph: the DiGraph.
        hubs: hub names, in descending planted-popularity order.
        clusters: reference name → member names (relevance order).
        ids: name → vertex id for every named (hub/cluster) node.
    """

    graph: DiGraph
    hubs: tuple[str, ...]
    clusters: dict[str, tuple[str, ...]] = field(default_factory=dict)
    ids: dict[str, int] = field(default_factory=dict)

    def id_of(self, name: str) -> int:
        """Vertex id of a planted named node."""
        return self.ids[name]


def stable_seed(*parts) -> int:
    """Deterministic 32-bit seed from structured parts (no PYTHONHASHSEED
    dependence)."""
    return zlib.crc32("|".join(str(p) for p in parts).encode("utf-8"))


#: Background→background out-degree (scaled by density; links stay
#: within the node's half).
BG_OUT = 4
#: Probability of each ref↔member reciprocal pair beyond the guaranteed
#: ones (scaled by density).
P_REF_MEMBER = 0.9
#: Fraction of back-half background nodes linking to each reference
#: node (one-way fan-in to the ref).
REF_IN_FRAC = 0.05


def _default_hub_fracs(n: int) -> tuple[float, ...]:
    """Strictly decreasing background fan-in fractions, 0.9 down to 0.05."""
    return tuple(0.9 * (0.72**i) + 0.02 for i in range(n))


def build_strata_graph(
    spark: SparkSession,
    *,
    hubs: tuple[str, ...],
    clusters: tuple[ClusterSpec, ...],
    n_background: int,
    seed: int,
    density: float = 1.0,
    hub_fracs: tuple[float, ...] | None = None,
    popular_members: dict[str, float] | None = None,
    p_bg_recip: float = 0.25,
    p_member_member: float = 0.5,
) -> LabeledGraph:
    """Generate a stratified graph (see module docstring).

    Args:
        spark: active session.
        hubs: hub names; planted popularity follows ``hub_fracs``.
        clusters: the topical clusters to plant.
        n_background: background-stratum size (>= 20).
        seed: RNG seed (generation is fully deterministic in it).
        density: scales background out-degree and in-cluster link
            probability — models snapshot year (older = sparser).
        hub_fracs: per-hub fraction of background nodes linking to it
            (defaults to a strictly decreasing sequence, so expected
            PageRank order equals hub order).
        popular_members: cluster-member name → background fan-in
            fraction, for members that are *also* globally popular
            (e.g. "The Catcher in the Rye" in Table II). Fans are drawn
            from the back half only (preserves the cycle invariant);
            the effective fraction is capped by the back-half size.
        p_bg_recip: probability a background link is reciprocated.
        p_member_member: base member→member link probability; decays
            with member position to encode the relevance order.

    Returns:
        A :class:`LabeledGraph`.
    """
    if n_background < 20:
        raise ValueError("n_background must be >= 20")
    hub_fracs = hub_fracs or _default_hub_fracs(len(hubs))
    if len(hub_fracs) != len(hubs):
        raise ValueError("hub_fracs must match hubs in length")
    popular_members = popular_members or {}
    rng = np.random.default_rng(seed)

    names: list[str] = list(hubs)
    for c in clusters:
        names.append(c.ref)
        names.extend(c.members)
    if len(set(names)) != len(names):
        raise ValueError("hub/cluster names must be globally unique")
    member_names = set(names[len(hubs):])
    for pname in popular_members:
        if pname not in member_names:
            raise ValueError(f"popular member {pname!r} is not in any cluster")
    first_named = len(names)
    names.extend(f"bg_{i}" for i in range(n_background))
    name_to_id = {n: i for i, n in enumerate(names)}

    n_hubs = len(hubs)
    bg_ids = np.arange(first_named, first_named + n_background)
    bg_front = bg_ids[: n_background // 2]  # targets of hubs/members
    bg_back = bg_ids[n_background // 2 :]  # sources of ref/popular in-links

    src_parts: list[np.ndarray] = []
    dst_parts: list[np.ndarray] = []

    def add(src, dst) -> None:
        src_parts.append(np.asarray(src, dtype="int64").ravel())
        dst_parts.append(np.asarray(dst, dtype="int64").ravel())

    # 1. background -> hubs with planted per-hub fan-in.
    for h, frac in enumerate(hub_fracs):
        n_fans = min(n_background, max(2, int(round(frac * n_background))))
        add(rng.choice(bg_ids, size=n_fans, replace=False), np.full(n_fans, h))

    # Popular cluster members: back-half fan-in (invariant-preserving).
    for pname, frac in popular_members.items():
        pid = name_to_id[pname]
        n_fans = min(len(bg_back), max(2, int(round(frac * n_background))))
        add(rng.choice(bg_back, size=n_fans, replace=False), np.full(n_fans, pid))

    # 2. hubs have no out-links: they are dangling sinks whose mass
    #    re-enters via the teleport vector. This mirrors the real-graph
    #    asymmetry ("United States" receives links from everywhere but
    #    its own links never lead back into a topical cluster) and keeps
    #    the two background halves statistically symmetric — otherwise
    #    hub mass recycling into one half distorts the planted
    #    popularity order.

    # 3. background -> background, within-half, partially reciprocated.
    d_bg = max(1, int(round(BG_OUT * density)))
    for half in (bg_front, bg_back):
        for b in half:
            tgts = rng.choice(half, size=min(d_bg, len(half)), replace=False)
            tgts = tgts[tgts != b]
            add(np.full(len(tgts), b), tgts)
            recip = tgts[rng.random(len(tgts)) < p_bg_recip]
            add(recip, np.full(len(recip), b))

    # 4. clusters.
    for c in clusters:
        rid = name_to_id[c.ref]
        mids = np.array([name_to_id[m] for m in c.members], dtype="int64")
        p_rm = min(1.0, P_REF_MEMBER * density)
        for j, m in enumerate(mids):
            if j < c.n_guaranteed or rng.random() < p_rm:
                add([rid, m], [m, rid])
            elif rng.random() < p_rm:
                add([m], [rid])
        # member -> member, denser among leading members (relevance order).
        for a_pos, a in enumerate(mids):
            for b_pos, b in enumerate(mids):
                if a == b:
                    continue
                p = p_member_member * density / (1.0 + 0.35 * min(a_pos, b_pos))
                if rng.random() < p:
                    add([a], [b])
        # cluster -> designated hubs (one-way mass leak to hubs).
        cluster_nodes = np.concatenate(([rid], mids))
        for h in c.hub_links:
            add(cluster_nodes, np.full(len(cluster_nodes), h % n_hubs))
        # members -> front-half background (never a ref in-linker).
        add(mids, rng.choice(bg_front, size=len(mids), replace=True))
        # back-half background -> ref (one-way fan-in).
        n_in = max(2, int(REF_IN_FRAC * len(bg_back)))
        add(rng.choice(bg_back, size=n_in, replace=False), np.full(n_in, rid))

    pdf = pd.DataFrame(
        {"src": np.concatenate(src_parts), "dst": np.concatenate(dst_parts)}
    )
    g = DiGraph.from_edges(
        spark, pdf[pdf["src"] != pdf["dst"]], names=dict(enumerate(names))
    )
    return LabeledGraph(
        graph=g,
        hubs=tuple(hubs),
        clusters={c.ref: tuple(c.members) for c in clusters},
        ids={n: name_to_id[n] for n in names[:first_named]},
    )
