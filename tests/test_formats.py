"""Tests for the three demo upload formats (edgelist CSV, Pajek, ASD)."""
import pytest

from tests.graphs import BOWTIE, CYCLE3
from repro.graph.formats import (
    detect_format,
    read_asd,
    read_edgelist,
    read_graph,
    read_pajek,
    write_asd,
    write_edgelist,
    write_graph,
    write_pajek,
)
from repro.graph.graph import DiGraph


def edge_set(g: DiGraph) -> set[tuple[int, int]]:
    return {(r["src"], r["dst"]) for r in g.edges.collect()}


# -- edgelist CSV -------------------------------------------------------


def test_edgelist_roundtrip(spark, tmp_path):
    g = DiGraph.from_edges(spark, BOWTIE)
    p = str(tmp_path / "g.csv")
    write_edgelist(g, p)
    g2 = read_edgelist(spark, p)
    assert edge_set(g2) == set(BOWTIE)


def test_edgelist_read_with_header(spark, tmp_path):
    p = tmp_path / "h.csv"
    p.write_text("src,dst\n0,1\n1,0\n")
    g = read_edgelist(spark, str(p), header=True)
    assert edge_set(g) == {(0, 1), (1, 0)}


def test_edgelist_file_is_plain_csv(spark, tmp_path):
    g = DiGraph.from_edges(spark, CYCLE3)
    p = tmp_path / "c.csv"
    write_edgelist(g, str(p))
    assert p.read_text().splitlines() == ["0,1", "1,2", "2,0"]


# -- Pajek --------------------------------------------------------------


def test_pajek_roundtrip(spark, tmp_path):
    g = DiGraph.from_edges(
        spark, [(1, 2), (2, 3), (3, 1)], names={1: "alpha", 2: "beta", 3: "gamma"}
    )
    p = str(tmp_path / "g.net")
    write_pajek(g, p)
    g2 = read_pajek(spark, p)
    assert edge_set(g2) == {(1, 2), (2, 3), (3, 1)}
    assert g2.id_of("beta") == 2


def test_pajek_rejects_zero_ids(spark, tmp_path):
    g = DiGraph.from_edges(spark, CYCLE3)  # ids 0..2
    with pytest.raises(ValueError, match="1-indexed"):
        write_pajek(g, str(tmp_path / "bad.net"))


def test_pajek_parses_comments_and_blank_lines(spark, tmp_path):
    p = tmp_path / "c.net"
    p.write_text(
        "% a comment\n*Vertices 2\n1 \"a\"\n\n2 \"b\"\n*Arcs\n1 2\n2 1\n"
    )
    g = read_pajek(spark, str(p))
    assert edge_set(g) == {(1, 2), (2, 1)}


def test_pajek_edges_section_alias(spark, tmp_path):
    p = tmp_path / "e.net"
    p.write_text("*Vertices 2\n1 \"a\"\n2 \"b\"\n*Edges\n1 2\n")
    assert edge_set(read_pajek(spark, str(p))) == {(1, 2)}


def test_pajek_no_arcs_raises(spark, tmp_path):
    p = tmp_path / "empty.net"
    p.write_text("*Vertices 1\n1 \"a\"\n*Arcs\n")
    with pytest.raises(ValueError, match="no arcs"):
        read_pajek(spark, str(p))


# -- ASD ----------------------------------------------------------------


def test_asd_roundtrip(spark, tmp_path):
    g = DiGraph.from_edges(spark, BOWTIE)
    p = str(tmp_path / "g.asd")
    write_asd(g, p)
    g2 = read_asd(spark, p)
    assert edge_set(g2) == set(BOWTIE)


def test_asd_header_written(spark, tmp_path):
    g = DiGraph.from_edges(spark, CYCLE3)
    p = tmp_path / "c.asd"
    write_asd(g, str(p))
    assert p.read_text().splitlines()[0] == "3 3"


def test_asd_bad_header_raises(spark, tmp_path):
    p = tmp_path / "bad.asd"
    p.write_text("3\n0 1\n")
    with pytest.raises(ValueError, match="header"):
        read_asd(spark, str(p))


def test_asd_edge_count_mismatch_raises(spark, tmp_path):
    p = tmp_path / "m.asd"
    p.write_text("3 5\n0 1\n1 2\n")
    with pytest.raises(ValueError, match="declared 5 edges"):
        read_asd(spark, str(p))


def test_asd_out_of_range_raises(spark, tmp_path):
    p = tmp_path / "r.asd"
    p.write_text("2 1\n0 5\n")
    with pytest.raises(ValueError, match="out of range"):
        read_asd(spark, str(p))


def test_asd_empty_header_with_arc_raises(spark, tmp_path):
    """A header of 0 vertices admits no endpoint at all."""
    p = tmp_path / "z.asd"
    p.write_text("0 1\n0 0\n")
    with pytest.raises(ValueError, match="out of range"):
        read_asd(spark, str(p))


def test_asd_negative_endpoint_raises(spark, tmp_path):
    p = tmp_path / "n.asd"
    p.write_text("2 1\n-1 0\n")
    with pytest.raises(ValueError, match="out of range"):
        read_asd(spark, str(p))


# -- dispatch -----------------------------------------------------------


@pytest.mark.parametrize(
    "fname,fmt",
    [("a.csv", "edgelist"), ("a.net", "pajek"), ("a.asd", "asd"), ("A.NET", "pajek")],
)
def test_detect_format(fname, fmt):
    assert detect_format(fname) == fmt


def test_detect_format_unknown_raises():
    with pytest.raises(ValueError, match="unknown graph format"):
        detect_format("graph.xyz")


@pytest.mark.parametrize("ext", ["csv", "asd"])
def test_read_write_graph_autodetect(spark, tmp_path, ext):
    g = DiGraph.from_edges(spark, BOWTIE)
    p = str(tmp_path / f"g.{ext}")
    write_graph(g, p)
    assert edge_set(read_graph(spark, p)) == set(BOWTIE)


def test_read_write_graph_autodetect_pajek(spark, tmp_path):
    g = DiGraph.from_edges(spark, [(1, 2), (2, 1)])
    p = str(tmp_path / "g.net")
    write_graph(g, p)
    assert edge_set(read_graph(spark, p)) == {(1, 2), (2, 1)}
