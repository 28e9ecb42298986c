"""Synthetic Twitter interaction networks (``cop27`` and ``8m``).

Stand-in for the paper's two keyword-collected Twitter datasets. Users
are nodes; a directed edge means the source interacted with the target
at least once (a retweet, reply, quote or mention: the interactions are
collapsed to distinct edges, as the algorithms use them). The generator
plants the usual strata (influencer hubs, a topical community around a
seed account) so the dataset-comparison use case behaves like the others.
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro.datasets.builder import (
    ClusterSpec,
    LabeledGraph,
    build_strata_graph,
    stable_seed,
)

TOPICS = ("cop27", "8m")

#: Per-topic planted accounts: influencer hubs and the seed community.
_TOPIC_SPEC: dict[str, dict] = {
    "cop27": {
        "hubs": ("@UNFCCC", "@UN", "@COP27P", "@GretaThunberg", "@IPCC_CH"),
        "ref": "@ClimateActivist",
        "members": ("@FridaysForFuture", "@ClimateReality", "@350",
                    "@ExtinctionR", "@WWF", "@Greenpeace"),
    },
    "8m": {
        "hubs": ("@UN_Women", "@ONUMujeres", "@womensmarch", "@UNESCO", "@Mujeres"),
        "ref": "@FeministCollective",
        "members": ("@8M_Madrid", "@NiUnaMenos", "@VivasNosQueremos",
                    "@HeForShe", "@TimesUpNow", "@MeTooMVMT"),
    },
}


def twitter(
    spark: SparkSession, topic: str = "cop27", *, scale: float = 1.0, seed: int = 0
) -> LabeledGraph:
    """Generate the collapsed interaction graph for a topic.

    Args:
        spark: active session.
        topic: ``"cop27"`` or ``"8m"``.
        scale: background-user multiplier (1.0 → 300 users).
        seed: base RNG seed.
    """
    if topic not in TOPICS:
        raise ValueError(f"unknown topic {topic!r}; know {TOPICS}")
    spec = _TOPIC_SPEC[topic]
    return build_strata_graph(
        spark,
        hubs=spec["hubs"],
        clusters=(ClusterSpec(ref=spec["ref"], members=spec["members"]),),
        n_background=max(40, int(300 * scale)),
        seed=stable_seed("twitter", topic, seed),
        # interactions reciprocate more than wikilinks (mutual mentions)
        p_bg_recip=0.35,
    )

