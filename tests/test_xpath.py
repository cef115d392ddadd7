"""XPath{/,//,*,[]} parsing, evaluation and pattern conversion."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.pattern.xpath_parser import (
    XPathSyntaxError,
    evaluate_path,
    parse_xpath,
    path_to_pattern,
)
from repro.workloads.updates import UPDATE_TEXTS
from repro.workloads.xmark import generate_xml
from repro.xmldom.model import ElementNode, TextNode, build_document
from repro.xmldom.parser import parse_document, parse_fragment


def ids(nodes):
    return [str(n.id) for n in nodes]


class TestParsing:
    def test_steps_and_axes(self):
        path = parse_xpath("/a//b/c")
        assert [s.axis for s in path.steps] == ["child", "desc", "child"]
        assert path.absolute

    def test_relative(self):
        path = parse_xpath("b/c")
        assert not path.absolute

    def test_wildcard_attribute_text(self):
        path = parse_xpath("//*/@id/text()")
        assert [s.test for s in path.steps] == ["*", "@id", "text()"]

    def test_trailing_tokens_rejected(self):
        with pytest.raises(XPathSyntaxError):
            parse_xpath("/a b")

    def test_empty_rejected(self):
        with pytest.raises(XPathSyntaxError):
            parse_xpath("")

    def test_predicate_variants_parse(self):
        parse_xpath("//person[phone and homepage]")
        parse_xpath("//person[phone or homepage]")
        parse_xpath("//person[address and (phone or homepage) and (creditcard or profile)]")
        parse_xpath("//person[@id = 'person0']")
        parse_xpath("//person[profile/@income]")

    def test_conjunctive_detection(self):
        assert parse_xpath("//a[b and c]").is_conjunctive()
        assert not parse_xpath("//a[b or c]").is_conjunctive()


class TestEvaluation:
    def test_absolute_child_anchors_at_root(self, people_document):
        assert ids(evaluate_path("/site/people", people_document)) == ["site1.people1"]
        assert evaluate_path("/people", people_document) == []

    def test_descendant_axis(self, people_document):
        assert len(evaluate_path("//name", people_document)) == 3

    def test_wildcard_step(self, people_document):
        out = evaluate_path("/site/*/person", people_document)
        assert len(out) == 3

    def test_attribute_step(self, people_document):
        out = evaluate_path("/site/people/person/@id", people_document)
        assert [n.val for n in out] == ["person0", "person1", "person2"]

    def test_existence_predicate(self, people_document):
        out = evaluate_path("//person[homepage]", people_document)
        assert [n.attribute("id").val for n in out] == ["person0", "person2"]

    def test_and_or_predicates(self, people_document):
        both = evaluate_path("//person[phone and homepage]", people_document)
        assert len(both) == 1
        either = evaluate_path("//person[phone or homepage]", people_document)
        assert len(either) == 2

    def test_value_comparison(self, people_document):
        out = evaluate_path("//person[name = 'Ann']", people_document)
        assert len(out) == 2

    def test_attribute_comparison(self, people_document):
        out = evaluate_path("//person[@id = 'person1']", people_document)
        assert len(out) == 1

    def test_nested_predicate_path(self, people_document):
        out = evaluate_path("//person[profile/@income]", people_document)
        assert len(out) == 1

    def test_results_in_document_order_and_deduped(self, people_document):
        out = evaluate_path("//person", people_document)
        assert ids(out) == sorted(ids(out))

    def test_text_step(self, people_document):
        out = evaluate_path("//name/text()", people_document)
        assert sorted(n.val for n in out) == ["Ann", "Ann", "Bob"]


class TestPatternConversion:
    def test_linear_path(self):
        pattern = path_to_pattern("/site/people/person")
        assert [n.label for n in pattern.nodes()] == ["site", "people", "person"]
        assert pattern.node("person#1").store_id

    def test_predicates_become_branches(self):
        pattern = path_to_pattern("//person[profile/@income]/name")
        labels = [n.label for n in pattern.nodes()]
        assert labels == ["person", "profile", "@income", "name"]
        assert pattern.node("name#1").store_id

    def test_value_predicate_lands_on_leaf(self):
        pattern = path_to_pattern("//person[@id = 'p0']")
        assert pattern.node("@id#1").value_pred == "p0"

    def test_annotation_choice(self):
        pattern = path_to_pattern("//a/b", annotate_last=("ID", "val", "cont"))
        b = pattern.node("b#1")
        assert b.store_id and b.store_val and b.store_cont

    def test_disjunction_rejected(self):
        with pytest.raises(XPathSyntaxError):
            path_to_pattern("//a[b or c]")


# ---------------------------------------------------------------------------
# Planned (index-seeded) evaluation == navigational evaluation
# ---------------------------------------------------------------------------

#: "d" is rare, so predicate leaves naming it seed from a short row.
_LABELS = "aaabbbcccd"
_VALUES = ("1", "2")


def _random_tree(rng, depth):
    element = ElementNode(rng.choice(_LABELS))
    if rng.random() < 0.4:
        element.set_attribute(rng.choice("xy"), rng.choice(_VALUES))
    if depth > 0:
        for _ in range(rng.randint(0, 4)):
            if rng.random() < 0.3:
                element.append(TextNode(rng.choice(_VALUES)))
            else:
                element.append(_random_tree(rng, depth - 1))
    return element


def _churned_document(rng):
    """A small random document after random subtree inserts/deletes,
    so the label rows are the incrementally maintained ones."""
    document = build_document(_random_tree(rng, 4))
    for _ in range(rng.randint(0, 6)):
        nodes = list(document.root.self_and_descendants())
        if rng.random() < 0.6:
            parent = rng.choice([n for n in nodes if isinstance(n, ElementNode)])
            position = rng.randint(0, len(parent.children))
            document.insert_subtree(parent, _random_tree(rng, 2), position)
        elif len(nodes) > 1:
            document.delete_subtree(rng.choice(nodes[1:]))
    return document


def _random_test(rng, last):
    roll = rng.random()
    if roll < 0.15:
        return "*"
    if last and roll < 0.25:
        return "@" + rng.choice("xy")
    if last and roll < 0.35:
        return "text()"
    return rng.choice(_LABELS)


def _random_relpath(rng, depth):
    steps = rng.randint(1, 2)
    text = "//" if rng.random() < 0.3 else ""
    for index in range(steps):
        if index:
            text += rng.choice(("/", "/", "//"))
        text += _random_test(rng, index == steps - 1)
        if depth > 0 and rng.random() < 0.2:
            text += "[%s]" % _random_filter(rng, depth - 1)
    return text


def _random_filter(rng, depth):
    roll = rng.random()
    if depth > 0 and roll < 0.2:
        return "%s and %s" % (_random_filter(rng, depth - 1), _random_filter(rng, depth - 1))
    if depth > 0 and roll < 0.4:
        return "(%s or %s)" % (_random_filter(rng, depth - 1), _random_filter(rng, depth - 1))
    path = _random_relpath(rng, depth)
    if roll < 0.5:
        return "%s = '%s'" % (path, rng.choice(_VALUES))
    if roll < 0.55:
        return "'%s' = %s" % (rng.choice(_VALUES), path)
    return path


def _random_path(rng):
    steps = rng.randint(1, 4)
    text = ""
    for index in range(steps):
        text += rng.choice(("/", "//"))
        text += _random_test(rng, index == steps - 1)
        for _ in range(rng.choice((0, 0, 0, 1, 2))):
            text += "[%s]" % _random_filter(rng, 2)
    return text


def _assert_same_targets(path_text, document):
    path = parse_xpath(path_text)
    planned = path.evaluate(document)
    navigational = path._evaluate_navigational(document)
    assert [n.id for n in planned] == [n.id for n in navigational], path_text
    assert all(a is b for a, b in zip(planned, navigational)), path_text


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_planned_evaluation_equals_navigational(seed):
    rng = random.Random(seed)
    document = _churned_document(rng)
    for _ in range(8):
        _assert_same_targets(_random_path(rng), document)


class TestPlannedEvaluation:
    def test_seeds_from_rarer_predicate_leaf(self, people_document):
        # Only person2 has a profile/@income leaf; the seed is that
        # attribute's row, lifted two parents.
        out = evaluate_path("//person[profile/@income]", people_document)
        assert [n.attribute("id").val for n in out] == ["person2"]
        assert evaluate_path("//person[profile/@missing]", people_document) == []

    def test_lifted_seeds_come_out_in_document_order(self):
        # c-leaves at different depths lift (one parent) to b nodes out
        # of document order: b2 (under b1) is lifted before b1.
        document = parse_document("<a><b><b><c/></b><c/></b><b/></a>")
        _assert_same_targets("//b[c]", document)
        assert [str(n.id) for n in evaluate_path("//b[c]", document)] == [
            "a1.b1",
            "a1.b1.b1",
        ]

    def test_desc_prefix_verified_through_ancestors(self):
        document = parse_document("<a><x><b><y><b><c/></b></y></b></x><c/></a>")
        for path in ("/a//b//c", "//x/b//b/c", "/a/x//c", "//b/c", "//y//c", "/x//c"):
            _assert_same_targets(path, document)

    @pytest.mark.parametrize("name", sorted(UPDATE_TEXTS))
    def test_appendix_a_targets_identical(self, xmark2_document, name):
        _assert_same_targets(UPDATE_TEXTS[name][0], xmark2_document)

    def test_churn_path_shapes_identical(self, xmark2_document):
        document = xmark2_document
        increase = document.nodes_with_label("increase")[3]
        person = document.nodes_with_label("person")[5]
        name = next(c for c in person.children if c.label == "name")
        document.insert_subtree(increase, parse_fragment("<flip1>x</flip1>")[0])
        document.insert_subtree(name, parse_fragment("<dirt2>zz</dirt2>")[0])
        for path in ("//increase/flip1", "//person[name/dirt2]", "//increase/flip9"):
            _assert_same_targets(path, document)
        assert len(evaluate_path("//increase/flip1", document)) == 1
        assert len(evaluate_path("//person[name/dirt2]", document)) == 1
        assert evaluate_path("//increase/flip9", document) == []


@pytest.fixture(scope="module")
def _xmark2_xml():
    return generate_xml(scale=2)


@pytest.fixture
def xmark2_document(_xmark2_xml):
    return parse_document(_xmark2_xml)
