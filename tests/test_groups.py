"""Unit tests for dependency graphs, HTML extraction, group registry."""

from __future__ import annotations

import pytest

from repro.core.errors import UnknownGroupError
from repro.core.types import GroupId, ObjectId
from repro.groups.dependency import DependencyGraph
from repro.groups.html_links import extract_embedded_urls, relate_document
from repro.groups.registry import GroupRegistry, groups_from_components

A, B, C, D = (ObjectId(x) for x in "abcd")


class TestDependencyGraph:
    def test_relate_creates_undirected_edge(self):
        for a, b in ((A, B), (B, A)):
            graph = DependencyGraph()
            graph.relate(a, b)
            assert graph.connected_components() == [frozenset({A, B})]

    def test_self_relation_rejected(self):
        graph = DependencyGraph()
        with pytest.raises(ValueError):
            graph.relate(A, A)

    def test_connected_components(self):
        graph = DependencyGraph()
        graph.relate(A, B)
        graph.relate(C, D)
        graph.add_object(ObjectId("isolated"))
        components = graph.connected_components()
        assert frozenset({A, B}) in components
        assert frozenset({C, D}) in components
        assert frozenset({ObjectId("isolated")}) in components

    def test_components_are_transitive(self):
        graph = DependencyGraph()
        graph.relate(A, B)
        graph.relate(B, C)
        assert graph.connected_components() == [frozenset({A, B, C})]


class TestHtmlExtraction:
    BASE = "http://news.example.com/story.html"

    def test_img_and_script_extracted(self):
        html = (
            '<html><body><img src="/photo.jpg">'
            '<script src="app.js"></script></body></html>'
        )
        urls = extract_embedded_urls(html, self.BASE)
        assert "http://news.example.com/photo.jpg" in urls
        assert "http://news.example.com/app.js" in urls

    def test_stylesheet_link_extracted_other_rels_ignored(self):
        html = (
            '<link rel="stylesheet" href="style.css">'
            '<link rel="canonical" href="other.html">'
        )
        urls = extract_embedded_urls(html, self.BASE)
        assert "http://news.example.com/style.css" in urls
        assert all("other.html" not in u for u in urls)

    def test_anchors_excluded_by_default(self):
        html = '<a href="next.html">next</a><img src="pic.png">'
        urls = extract_embedded_urls(html, self.BASE)
        assert urls == ["http://news.example.com/pic.png"]

    def test_anchors_included_on_request(self):
        html = '<a href="next.html">next</a>'
        urls = extract_embedded_urls(html, self.BASE, include_anchors=True)
        assert urls == ["http://news.example.com/next.html"]

    def test_non_http_schemes_dropped(self):
        html = (
            '<img src="javascript:alert(1)">'
            '<img src="data:image/png;base64,xyz">'
            '<a href="mailto:x@y.z">m</a>'
        )
        assert extract_embedded_urls(html, self.BASE, include_anchors=True) == []

    def test_fragments_stripped_and_deduped(self):
        html = '<img src="pic.png#a"><img src="pic.png#b">'
        urls = extract_embedded_urls(html, self.BASE)
        assert urls == ["http://news.example.com/pic.png"]

    def test_self_reference_dropped(self):
        html = f'<img src="{self.BASE}">'
        assert extract_embedded_urls(html, self.BASE) == []

    def test_absolute_urls_preserved(self):
        html = '<img src="http://cdn.example.net/x.jpg">'
        urls = extract_embedded_urls(html, self.BASE)
        assert urls == ["http://cdn.example.net/x.jpg"]

    def test_video_audio_iframe_extracted(self):
        html = (
            '<video src="clip.mp4"></video>'
            '<audio src="clip.mp3"></audio>'
            '<iframe src="embed.html"></iframe>'
        )
        urls = extract_embedded_urls(html, self.BASE)
        assert len(urls) == 3

    def test_relate_document_builds_graph(self):
        graph = DependencyGraph()
        html = '<img src="a.png"><img src="b.png">'
        embedded = relate_document(graph, self.BASE, html)
        assert len(embedded) == 2
        doc = ObjectId(self.BASE)
        assert graph.connected_components() == [frozenset({doc, *embedded})]

    def test_relate_document_with_no_embeds_adds_node(self):
        graph = DependencyGraph()
        relate_document(graph, self.BASE, "<p>hello</p>")
        assert graph.connected_components() == [frozenset({ObjectId(self.BASE)})]


class TestGroupRegistry:
    def test_create_and_lookup(self):
        registry = GroupRegistry()
        spec = registry.create_group("g", (A, B), 5.0)
        assert registry.get(GroupId("g")) is spec
        assert GroupId("g") in registry
        assert len(registry) == 1

    def test_duplicate_group_rejected(self):
        registry = GroupRegistry()
        registry.create_group("g", (A, B), 5.0)
        with pytest.raises(ValueError):
            registry.create_group("g", (C, D), 5.0)

    def test_groups_of_member(self):
        registry = GroupRegistry()
        registry.create_group("g1", (A, B), 5.0)
        registry.create_group("g2", (A, C), 2.0)
        groups = registry.groups_of(A)
        assert [str(g.group_id) for g in groups] == ["g1", "g2"]
        assert registry.groups_of(D) == []

    def test_partners_union(self):
        registry = GroupRegistry()
        registry.create_group("g1", (A, B), 5.0)
        registry.create_group("g2", (A, C), 2.0)
        assert registry.partners_of(A) == {B, C}

    def test_remove_group_cleans_index(self):
        registry = GroupRegistry()
        registry.create_group("g", (A, B), 5.0)
        registry.remove_group(GroupId("g"))
        assert registry.groups_of(A) == []
        assert len(registry) == 0

    def test_remove_unknown_group_rejected(self):
        with pytest.raises(UnknownGroupError):
            GroupRegistry().remove_group(GroupId("nope"))

    def test_get_unknown_group_rejected(self):
        with pytest.raises(UnknownGroupError):
            GroupRegistry().get(GroupId("nope"))

    def test_create_group_rejects_single_member(self):
        with pytest.raises(ValueError, match=">= 2 members"):
            GroupRegistry().create_group("g", (A,), 5.0)

    def test_create_group_rejects_empty_members(self):
        with pytest.raises(ValueError, match="2 members"):
            GroupRegistry().create_group("g", (), 5.0)

    def test_create_group_rejects_duplicate_members(self):
        with pytest.raises(ValueError, match="duplicate"):
            GroupRegistry().create_group("g", (A, B, A), 5.0)

    def test_add_group_revalidates_bypassed_spec(self):
        # A spec smuggled past GroupSpec.__post_init__ must still be
        # rejected at registration, or the member index double-counts.
        from repro.core.types import GroupSpec

        spec = object.__new__(GroupSpec)
        object.__setattr__(spec, "group_id", GroupId("g"))
        object.__setattr__(spec, "members", (A, A))
        object.__setattr__(spec, "mutual_delta", 5.0)
        registry = GroupRegistry()
        with pytest.raises(ValueError, match="duplicate"):
            registry.add_group(spec)
        assert len(registry) == 0
        assert registry.groups_of(A) == []


class TestGroupsFromComponents:
    def test_one_group_per_component(self):
        graph = DependencyGraph()
        graph.relate(A, B)
        graph.relate(C, D)
        specs = groups_from_components(graph, mutual_delta=3.0)
        assert len(specs) == 2
        assert all(spec.mutual_delta == 3.0 for spec in specs)

    def test_isolated_objects_skipped(self):
        graph = DependencyGraph()
        graph.relate(A, B)
        graph.add_object(C)
        specs = groups_from_components(graph, mutual_delta=3.0)
        assert len(specs) == 1
        assert set(specs[0].members) == {A, B}

    def test_group_ids_deterministic(self):
        graph = DependencyGraph()
        graph.relate(A, B)
        graph.relate(C, D)
        specs = groups_from_components(graph, mutual_delta=3.0, prefix="grp")
        assert [str(s.group_id) for s in specs] == ["grp-0", "grp-1"]

    def test_feeds_registry(self):
        graph = DependencyGraph()
        graph.relate(A, B)
        registry = GroupRegistry()
        for spec in groups_from_components(graph, mutual_delta=1.0):
            registry.add_group(spec)
        assert registry.partners_of(A) == {B}
