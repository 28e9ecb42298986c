"""Structural tests for the synthetic dataset generators.

These verify the *planted ground truth* each table reproduction relies
on — most importantly the cycle invariant: every simple cycle through a
reference node consists solely of that cluster's nodes, checked by
exhaustive DFS enumeration on driver-side copies of the graphs.
"""
import pytest

from repro.datasets.amazon import DYSTOPIA_REF, HUBS as AMAZON_HUBS, TOLKIEN_REF, amazon
from repro.datasets.builder import ClusterSpec, build_strata_graph, stable_seed
from repro.datasets.twitter import twitter
from repro.datasets.wikilink import FAKE_NEWS, HUBS, LANGUAGES, YEARS, wikilink
from repro.oracle import assert_equivalent
from repro.reference import simple_cycles_ref


def _edge_list(lg) -> list[tuple[int, int]]:
    return [(r["src"], r["dst"]) for r in lg.graph.edges.collect()]


@pytest.fixture(scope="module")
def wiki_en(spark):
    return wikilink(spark, "en", 2018, scale=0.15, seed=0)


@pytest.fixture(scope="module")
def wiki_en_edges(wiki_en):
    return _edge_list(wiki_en)


@pytest.fixture(scope="module")
def amazon_small(spark):
    return amazon(spark, scale=0.15, seed=0)


# -- builder basics -----------------------------------------------------


def test_stable_seed_deterministic():
    assert stable_seed("a", 1) == stable_seed("a", 1)
    assert stable_seed("a", 1) != stable_seed("a", 2)


def test_builder_rejects_tiny_background(spark):
    with pytest.raises(ValueError, match="n_background"):
        build_strata_graph(
            spark, hubs=("h",), clusters=(), n_background=5, seed=0
        )


def test_builder_rejects_duplicate_names(spark):
    with pytest.raises(ValueError, match="unique"):
        build_strata_graph(
            spark,
            hubs=("x",),
            clusters=(ClusterSpec(ref="x", members=("y",)),),
            n_background=30,
            seed=0,
        )


def test_builder_rejects_unknown_popular_member(spark):
    with pytest.raises(ValueError, match="popular member"):
        build_strata_graph(
            spark,
            hubs=("h",),
            clusters=(ClusterSpec(ref="r", members=("m",)),),
            n_background=30,
            seed=0,
            popular_members={"nope": 0.5},
        )


def test_builder_rejects_hub_frac_mismatch(spark):
    with pytest.raises(ValueError, match="hub_fracs"):
        build_strata_graph(
            spark, hubs=("a", "b"), clusters=(), n_background=30, seed=0,
            hub_fracs=(0.5,),
        )


def test_deterministic_in_seed(spark):
    a = sorted(_edge_list(wikilink(spark, "en", 2018, scale=0.1, seed=3)))
    b = sorted(_edge_list(wikilink(spark, "en", 2018, scale=0.1, seed=3)))
    assert a == b


def test_different_seeds_differ(spark):
    a = sorted(_edge_list(wikilink(spark, "en", 2018, scale=0.1, seed=3)))
    b = sorted(_edge_list(wikilink(spark, "en", 2018, scale=0.1, seed=4)))
    assert a != b


# -- wikilink -----------------------------------------------------------


def test_wikilink_bad_lang_raises(spark):
    with pytest.raises(ValueError, match="language"):
        wikilink(spark, "xx", 2018)


def test_wikilink_bad_year_raises(spark):
    with pytest.raises(ValueError, match="year"):
        wikilink(spark, "en", 1999)


def test_wikilink_en_ground_truth_registered(wiki_en):
    assert wiki_en.hubs == HUBS["en"]
    assert "Freddie Mercury" in wiki_en.clusters
    assert "Pasta" in wiki_en.clusters
    assert FAKE_NEWS["en"][0] in wiki_en.clusters


def test_wikilink_named_nodes_resolve(wiki_en):
    v = wiki_en.graph.vertices.toPandas()
    name_of = dict(zip(v["id"], v["name"]))
    for name in ("United States", "Freddie Mercury", "Queen (band)"):
        nid = wiki_en.id_of(name)
        assert name_of[nid] == name


def test_wikilink_no_self_loops(wiki_en_edges):
    assert all(s != d for s, d in wiki_en_edges)


def test_wikilink_no_duplicate_edges(wiki_en_edges):
    assert len(wiki_en_edges) == len(set(wiki_en_edges))


def _in_degrees(g) -> dict[int, int]:
    """Vertex id -> in-degree, counted in pandas from the edge list."""
    counts = g.edges.toPandas()["dst"].value_counts()
    return {int(v): int(counts.get(v, 0)) for v in g.vertices.toPandas()["id"]}


def test_hub_indegree_order_matches_planting(wiki_en):
    """Planted fan-in fractions decrease along the hub list."""
    degs = _in_degrees(wiki_en.graph)
    hub_degs = [degs[wiki_en.id_of(h)] for h in wiki_en.hubs]
    assert hub_degs == sorted(hub_degs, reverse=True)


def test_hubs_beat_background_indegree(wiki_en):
    degs = _in_degrees(wiki_en.graph)
    top_hub = degs[wiki_en.id_of(wiki_en.hubs[0])]
    named = set(wiki_en.ids.values())
    max_bg = max(v for k, v in degs.items() if k not in named)
    assert top_hub > max_bg


@pytest.mark.parametrize("ref_name", ["Freddie Mercury", "Pasta"])
@pytest.mark.parametrize("k", [3, 5])
def test_cycle_invariant_en(wiki_en, wiki_en_edges, ref_name, k):
    """Every simple cycle through a reference contains only that
    cluster's nodes — for any K (the builder's core invariant)."""
    rid = wiki_en.id_of(ref_name)
    allowed = {rid} | {wiki_en.id_of(m) for m in wiki_en.clusters[ref_name]}
    for cyc in simple_cycles_ref(wiki_en_edges, rid, k):
        assert set(cyc) <= allowed, f"cycle {cyc} escapes the cluster"


def test_guaranteed_members_have_two_cycles(wiki_en, wiki_en_edges):
    """The first five members of each cluster are reciprocally linked to
    the reference (the top-5 can never be starved)."""
    eset = set(wiki_en_edges)
    for ref_name, members in wiki_en.clusters.items():
        rid = wiki_en.id_of(ref_name)
        for m in members[:5]:
            mid = wiki_en.id_of(m)
            assert (rid, mid) in eset and (mid, rid) in eset


def test_cluster_links_to_hubs_one_way(wiki_en, wiki_en_edges):
    """Reference nodes link to the top hubs; hubs never link back to any
    cluster node (the PPR-leak edge)."""
    eset = set(wiki_en_edges)
    hub_ids = {wiki_en.id_of(h) for h in wiki_en.hubs}
    for ref_name, members in wiki_en.clusters.items():
        cluster = {wiki_en.id_of(ref_name)} | {wiki_en.id_of(m) for m in members}
        assert any((c, h) in eset for c in cluster for h in hub_ids)
        assert not any((h, c) in eset for c in cluster for h in hub_ids)


def test_year_density_monotone(spark):
    """Older snapshots are sparser (graph growth over time)."""
    n18 = wikilink(spark, "en", 2018, scale=0.1).graph.num_edges()
    n03 = wikilink(spark, "en", 2003, scale=0.1).graph.num_edges()
    assert n03 < n18


@pytest.mark.parametrize("lang", LANGUAGES)
def test_all_languages_have_fake_news_cluster(spark, lang):
    ref, members = FAKE_NEWS[lang]
    assert len(members) >= 5
    assert lang in HUBS


def test_years_constant():
    assert YEARS == (2003, 2008, 2013, 2018)


def test_edge_count_oracle(spark, wiki_en):
    """Degree sum equals edge count (checked through DuckDB)."""
    assert_equivalent(
        wiki_en.graph.edges.groupBy("src").count().withColumnRenamed("count", "n"),
        "SELECT src, COUNT(*) AS n FROM edges GROUP BY src",
        edges=wiki_en.graph.edges.toPandas(),
    )


# -- amazon -------------------------------------------------------------


def test_amazon_ground_truth(amazon_small):
    assert amazon_small.hubs == AMAZON_HUBS
    assert DYSTOPIA_REF in amazon_small.clusters
    assert TOLKIEN_REF in amazon_small.clusters


@pytest.mark.parametrize("ref_name", [DYSTOPIA_REF, TOLKIEN_REF])
def test_amazon_cycle_invariant_k5(amazon_small, ref_name):
    """Table II runs CycleRank at K=5 — the invariant must hold there."""
    edges = _edge_list(amazon_small)
    rid = amazon_small.id_of(ref_name)
    allowed = {rid} | {
        amazon_small.id_of(m) for m in amazon_small.clusters[ref_name]
    }
    for cyc in simple_cycles_ref(edges, rid, 5):
        assert set(cyc) <= allowed


def test_amazon_popular_members_high_indegree(amazon_small):
    """Best-seller cluster members out-rank the Potter hubs on in-degree
    (that's what keeps Potter out of PageRank's top-5)."""
    degs = _in_degrees(amazon_small.graph)
    catcher = degs[amazon_small.id_of("The Catcher in the Rye")]
    potter1 = degs[amazon_small.id_of(AMAZON_HUBS[2])]
    assert catcher > potter1


def test_amazon_tolkien_links_to_potter(amazon_small):
    """The epic-fantasy cluster leaks to the Potter volumes (one-way)."""
    eset = set(_edge_list(amazon_small))
    rid = amazon_small.id_of(TOLKIEN_REF)
    potter = amazon_small.id_of(AMAZON_HUBS[2])
    assert (rid, potter) in eset
    assert (potter, rid) not in eset


# -- twitter ------------------------------------------------------------


def test_twitter_bad_topic_raises(spark):
    with pytest.raises(ValueError, match="topic"):
        twitter(spark, "nope")


@pytest.mark.parametrize("topic", ["cop27", "8m"])
def test_twitter_topics_generate(spark, topic):
    lg = twitter(spark, topic, scale=0.1)
    assert lg.graph.num_vertices() > 0
    assert len(lg.clusters) == 1

