"""XPath``{/,//,*,[]}`` parser and evaluator.

This is the path language *XP* of Section 2 used (a) inside view
definitions and (b) as the target language of updates, where the
XPathMark-derived test set (Appendix A) additionally exercises ``and`` /
``or`` / parenthesised filter combinations -- all supported here.

Grammar (no reverse axes, no functions except ``text()``):

    path      := ('/' | '//') step (('/' | '//') step)*
                 | step (('/' | '//') step)*            (relative)
    step      := nametest predicate*
    nametest  := NAME | '*' | '@' NAME | 'text()'
    predicate := '[' orexpr ']'
    orexpr    := andexpr ('or' andexpr)*
    andexpr   := atom ('and' atom)*
    atom      := '(' orexpr ')' | relpath ('=' literal)?
                 | literal '=' relpath

A predicate path without comparison is an existence test.  Comparisons
follow the paper's ``string(x) = c`` semantics: *some* node reached by
the path has string value equal to the literal.

The conjunctive, or-free fragment converts to a tree pattern via
:func:`path_to_pattern` (used when updates/views are fed to the
algebraic machinery).  Finding the target nodes of an update -- the
job the paper delegates to Saxon -- is :meth:`PathExpr.evaluate`, a
small shape-based planner:

* a path with at least one ``//`` step whose last step names a
  concrete label (``a``, ``@a`` or ``text()``) is evaluated bottom-up.
  Candidates are seeded from the document's label index (``R_a``),
  or, when a conjunctive child-only predicate of the last step names
  a rarer leaf label (``//person[name/dirt3]``), from that leaf's row
  climbed the predicate's fixed number of parents.  A candidate is
  kept if it passes the last step's test and predicates and the step
  prefix verifies *upward* along parent pointers (a child step checks
  the parent, a ``//`` step tries each ancestor; memoized per Dewey
  ID and step).  Label rows are document-ordered, so the result needs
  no sort;
* child-only chains anchored at the root and paths ending in ``*``
  keep the top-down navigational walk
  (:meth:`PathExpr._evaluate_navigational`), which is cheaper there
  than verifying every node of a large row.

Predicates (``and`` / ``or`` / ``=`` / existence) are always evaluated
downward from the node they filter, so both strategies return the
same target list.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.pattern.tree_pattern import Pattern, PatternNode
from repro.xmldom.dewey import DeweyID
from repro.xmldom.model import (
    TEXT_LABEL,
    AttributeNode,
    Document,
    ElementNode,
    Node,
    TextNode,
)


class XPathSyntaxError(ValueError):
    pass


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


class Step:
    """One location step: an axis, a name test and predicates."""

    __slots__ = ("axis", "test", "predicates")

    def __init__(self, axis: str, test: str, predicates: Sequence["FilterExpr"] = ()):
        self.axis = axis  # 'child' | 'desc'
        self.test = test  # label, '*', '@name' or 'text()'
        self.predicates = list(predicates)

    def __repr__(self) -> str:
        sep = "/" if self.axis == "child" else "//"
        preds = "".join("[%r]" % p for p in self.predicates)
        return "%s%s%s" % (sep, self.test, preds)


class FilterExpr:
    """Base class of predicate expressions."""

    def evaluate(self, node: Node) -> bool:
        raise NotImplementedError

    def is_conjunctive(self) -> bool:
        raise NotImplementedError


class ExistsFilter(FilterExpr):
    """``[p]``: the relative path has at least one match."""

    def __init__(self, path: "PathExpr"):
        self.path = path

    def evaluate(self, node: Node) -> bool:
        return any(True for _ in self.path.match_from(node))

    def is_conjunctive(self) -> bool:
        return all(
            pred.is_conjunctive() for step in self.path.steps for pred in step.predicates
        )

    def __repr__(self) -> str:
        return "Exists(%r)" % (self.path,)


class ValueFilter(FilterExpr):
    """``[p = 'c']``: some node reached by ``p`` has string value c.

    An empty relative path (``[. = 'c']`` is not in the grammar, but
    ``string($x) = c`` from the view language maps here) compares the
    context node itself.
    """

    def __init__(self, path: Optional["PathExpr"], constant: str):
        self.path = path
        self.constant = constant

    def evaluate(self, node: Node) -> bool:
        if self.path is None:
            return node.val == self.constant
        return any(match.val == self.constant for match in self.path.match_from(node))

    def is_conjunctive(self) -> bool:
        return True

    def __repr__(self) -> str:
        return "Value(%r = %r)" % (self.path, self.constant)


class AndFilter(FilterExpr):
    def __init__(self, parts: Sequence[FilterExpr]):
        self.parts = list(parts)

    def evaluate(self, node: Node) -> bool:
        return all(part.evaluate(node) for part in self.parts)

    def is_conjunctive(self) -> bool:
        return all(part.is_conjunctive() for part in self.parts)

    def __repr__(self) -> str:
        return "And(%r)" % (self.parts,)


class OrFilter(FilterExpr):
    def __init__(self, parts: Sequence[FilterExpr]):
        self.parts = list(parts)

    def evaluate(self, node: Node) -> bool:
        return any(part.evaluate(node) for part in self.parts)

    def is_conjunctive(self) -> bool:
        return False

    def __repr__(self) -> str:
        return "Or(%r)" % (self.parts,)


class PathExpr:
    """A parsed path: absolute (anchored at the document root) or relative."""

    def __init__(self, steps: Sequence[Step], absolute: bool):
        if not steps:
            raise XPathSyntaxError("empty path")
        self.steps = list(steps)
        self.absolute = absolute

    # -- evaluation ---------------------------------------------------------

    def _step_matches(self, step: Step, context: Node) -> Iterator[Node]:
        """Nodes reachable from ``context`` through one step."""
        if not isinstance(context, ElementNode):
            return
        if step.axis == "child":
            candidates: Iterator[Node] = iter(context.children)
        else:
            candidates = context.descendants()
        for node in candidates:
            if _test_matches(step.test, node) and all(
                pred.evaluate(node) for pred in step.predicates
            ):
                yield node

    def match_from(self, context: Node) -> Iterator[Node]:
        """All nodes reached from ``context`` (relative semantics)."""
        frontier: List[Node] = [context]
        for step in self.steps:
            seen = set()
            next_frontier: List[Node] = []
            for node in frontier:
                for match in self._step_matches(step, node):
                    if match.id not in seen:
                        seen.add(match.id)
                        next_frontier.append(match)
            next_frontier.sort(key=lambda n: n.id.sort_key)
            frontier = next_frontier
            if not frontier:
                break
        return iter(frontier)

    @cached_property
    def _bottom_up(self) -> bool:
        """The shape rule of :meth:`evaluate`, decided once per path
        (lazily, so paths unpickled from an older statement log get it
        too)."""
        return self.steps[-1].test != "*" and any(
            step.axis == "desc" for step in self.steps
        )

    def evaluate(self, document: Document) -> List[Node]:
        """Absolute evaluation: target nodes in document order.

        Plans by shape (see the module docstring): bottom-up from the
        label index when the path has a ``//`` step and ends in a
        concrete label, navigational otherwise.
        """
        if not self._bottom_up:
            return self._evaluate_navigational(document)
        last = len(self.steps) - 1
        root = document.root
        memo: Dict[Tuple[DeweyID, int], bool] = {}
        return [
            node
            for node in self._seed(document)
            if self._verify_upward(node, last, root, memo)
        ]

    def _seed(self, document: Document) -> List[Node]:
        """Document-ordered candidates for the last step.

        The last step's label row, unless a conjunctive child-only
        predicate of that step ends in a rarer label: every node that
        passes the predicate is then a fixed-height ancestor of a node
        of that row.
        """
        last = self.steps[-1]
        seeds = document.nodes_with_label(_index_label(last.test))
        height = 0
        for predicate in _conjuncts(last.predicates):
            leaf = _child_chain_leaf(predicate)
            if leaf is None:
                continue
            row = document.nodes_with_label(leaf[0])
            if len(row) < len(seeds):
                seeds, height = row, leaf[1]
        if not height:
            return seeds
        seen = set()
        lifted: List[Node] = []
        for leaf_node in seeds:
            node: Optional[Node] = leaf_node
            for _ in range(height):
                node = node.parent
                if node is None:
                    break
            if node is not None and node.id not in seen:
                seen.add(node.id)
                lifted.append(node)
        # Leaves at different depths can lift out of document order.
        lifted.sort(key=lambda n: n.id.sort_key)
        return lifted

    def _verify_upward(
        self,
        node: Node,
        index: int,
        root: ElementNode,
        memo: Dict[Tuple[DeweyID, int], bool],
    ) -> bool:
        """Does ``node`` match ``steps[index]`` reached from the root
        through ``steps[:index]``?"""
        step = self.steps[index]
        if not _test_matches(step.test, node):
            return False
        # Seeds are distinct: only nodes checked against a prefix step
        # can be reached twice.
        key = None
        if index < len(self.steps) - 1:
            key = (node.id, index)
            known = memo.get(key)
            if known is not None:
                return known
        if not all(pred.evaluate(node) for pred in step.predicates):
            matched = False
        elif index == 0:
            matched = step.axis == "desc" or node is root
        elif step.axis == "child":
            parent = node.parent
            matched = parent is not None and self._verify_upward(
                parent, index - 1, root, memo
            )
        else:
            matched = any(
                self._verify_upward(ancestor, index - 1, root, memo)
                for ancestor in node.ancestors()
            )
        if key is not None:
            memo[key] = matched
        return matched

    def _evaluate_navigational(self, document: Document) -> List[Node]:
        """Top-down evaluation: walk from the root, step by step."""
        first, rest = self.steps[0], self.steps[1:]
        roots: List[Node] = []
        root = document.root
        if first.axis == "child":
            if _test_matches(first.test, root) and all(
                pred.evaluate(root) for pred in first.predicates
            ):
                roots.append(root)
        else:
            for node in [root, *root.descendants()]:
                if _test_matches(first.test, node) and all(
                    pred.evaluate(node) for pred in first.predicates
                ):
                    roots.append(node)
        if not rest:
            return roots
        tail = PathExpr(rest, absolute=False)
        out: List[Node] = []
        seen = set()
        for start in roots:
            for match in tail.match_from(start):
                if match.id not in seen:
                    seen.add(match.id)
                    out.append(match)
        out.sort(key=lambda n: n.id.sort_key)
        return out

    # -- properties ------------------------------------------------------------

    def is_conjunctive(self) -> bool:
        return all(pred.is_conjunctive() for step in self.steps for pred in step.predicates)

    def __repr__(self) -> str:
        return "".join(repr(step) for step in self.steps)


def _index_label(test: str) -> str:
    """The label-index row holding the nodes a concrete name test
    accepts (attributes are indexed as ``@name``)."""
    return TEXT_LABEL if test == "text()" else test


def _conjuncts(predicates: Sequence[FilterExpr]) -> Iterator[FilterExpr]:
    """The filters every match of ``predicates`` must pass (``and``
    flattened, ``or`` left whole)."""
    for predicate in predicates:
        if isinstance(predicate, AndFilter):
            yield from _conjuncts(predicate.parts)
        else:
            yield predicate


def _child_chain_leaf(predicate: FilterExpr) -> Optional[Tuple[str, int]]:
    """``(leaf label, height)`` when ``predicate`` requires a node
    reached by ``height`` child steps ending in a concrete label."""
    if not isinstance(predicate, (ExistsFilter, ValueFilter)) or predicate.path is None:
        return None
    steps = predicate.path.steps
    if steps[-1].test == "*" or any(step.axis != "child" for step in steps):
        return None
    return _index_label(steps[-1].test), len(steps)


def _test_matches(test: str, node: Node) -> bool:
    if test == "*":
        return isinstance(node, ElementNode)
    if test == "text()":
        return isinstance(node, TextNode)
    if test.startswith("@"):
        return isinstance(node, AttributeNode) and node.label == test
    return isinstance(node, ElementNode) and node.label == test


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

_PUNCT = ("//", "/", "[", "]", "(", ")", "=", "@")


def _tokenize(text: str) -> List[str]:
    tokens: List[str] = []
    index = 0
    length = len(text)
    while index < length:
        char = text[index]
        if char in " \t\r\n":
            index += 1
            continue
        if text.startswith("//", index):
            tokens.append("//")
            index += 2
            continue
        if char in "/[]()=@":
            tokens.append(char)
            index += 1
            continue
        if char in "'\"":
            end = text.find(char, index + 1)
            if end == -1:
                raise XPathSyntaxError("unterminated literal in %r" % text)
            tokens.append("'" + text[index + 1:end])
            index = end + 1
            continue
        if char == "*":
            tokens.append("*")
            index += 1
            continue
        start = index
        while index < length and (text[index].isalnum() or text[index] in "._-"):
            index += 1
        if index == start:
            raise XPathSyntaxError("unexpected character %r in %r" % (char, text))
        name = text[start:index]
        if text.startswith("()", index) and name == "text":
            tokens.append("text()")
            index += 2
        else:
            tokens.append(name)
    return tokens


class _TokenStream:
    def __init__(self, tokens: List[str], source: str):
        self.tokens = tokens
        self.source = source
        self.pos = 0

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str:
        token = self.peek()
        if token is None:
            raise XPathSyntaxError("unexpected end of %r" % self.source)
        self.pos += 1
        return token

    def expect(self, token: str) -> None:
        got = self.next()
        if got != token:
            raise XPathSyntaxError("expected %r, got %r in %r" % (token, got, self.source))


def _parse_nametest(stream: _TokenStream) -> str:
    token = stream.next()
    if token == "@":
        return "@" + stream.next()
    if token in ("*", "text()"):
        return token
    if token in _PUNCT or token.startswith("'"):
        raise XPathSyntaxError("expected a name test, got %r in %r" % (token, stream.source))
    return token


def _parse_steps(stream: _TokenStream, first_axis: str) -> List[Step]:
    steps: List[Step] = []
    axis = first_axis
    while True:
        test = _parse_nametest(stream)
        predicates: List[FilterExpr] = []
        while stream.peek() == "[":
            stream.next()
            predicates.append(_parse_or(stream))
            stream.expect("]")
        steps.append(Step(axis, test, predicates))
        token = stream.peek()
        if token == "/":
            stream.next()
            axis = "child"
        elif token == "//":
            stream.next()
            axis = "desc"
        else:
            return steps


def _parse_relative_path(stream: _TokenStream) -> "PathExpr":
    token = stream.peek()
    if token == "/":
        stream.next()
        return PathExpr(_parse_steps(stream, "child"), absolute=False)
    if token == "//":
        stream.next()
        return PathExpr(_parse_steps(stream, "desc"), absolute=False)
    return PathExpr(_parse_steps(stream, "child"), absolute=False)


def _parse_atom(stream: _TokenStream) -> FilterExpr:
    token = stream.peek()
    if token == "(":
        stream.next()
        inner = _parse_or(stream)
        stream.expect(")")
        return inner
    if token is not None and token.startswith("'"):
        literal = stream.next()[1:]
        stream.expect("=")
        path = _parse_relative_path(stream)
        return ValueFilter(path, literal)
    path = _parse_relative_path(stream)
    if stream.peek() == "=":
        stream.next()
        literal_token = stream.next()
        if not literal_token.startswith("'"):
            raise XPathSyntaxError(
                "comparison against non-literal %r in %r" % (literal_token, stream.source)
            )
        return ValueFilter(path, literal_token[1:])
    return ExistsFilter(path)


def _parse_and(stream: _TokenStream) -> FilterExpr:
    parts = [_parse_atom(stream)]
    while stream.peek() == "and":
        stream.next()
        parts.append(_parse_atom(stream))
    return parts[0] if len(parts) == 1 else AndFilter(parts)


def _parse_or(stream: _TokenStream) -> FilterExpr:
    parts = [_parse_and(stream)]
    while stream.peek() == "or":
        stream.next()
        parts.append(_parse_and(stream))
    return parts[0] if len(parts) == 1 else OrFilter(parts)


def parse_xpath(text: str) -> PathExpr:
    """Parse an absolute or relative XPath``{/,//,*,[]}`` expression."""
    stream = _TokenStream(_tokenize(text), text)
    token = stream.peek()
    if token == "/":
        stream.next()
        path = PathExpr(_parse_steps(stream, "child"), absolute=True)
    elif token == "//":
        stream.next()
        path = PathExpr(_parse_steps(stream, "desc"), absolute=True)
    else:
        path = PathExpr(_parse_steps(stream, "child"), absolute=False)
    if stream.peek() is not None:
        raise XPathSyntaxError("trailing tokens in %r" % text)
    return path


def evaluate_path(path: Union[str, PathExpr], document: Document) -> List[Node]:
    """Find the target nodes of a path in document order."""
    if isinstance(path, str):
        path = parse_xpath(path)
    return path.evaluate(document)


# ---------------------------------------------------------------------------
# Conversion to tree patterns (conjunctive fragment)
# ---------------------------------------------------------------------------


def _filter_to_branches(expr: FilterExpr, parent: PatternNode) -> None:
    if isinstance(expr, AndFilter):
        for part in expr.parts:
            _filter_to_branches(part, parent)
        return
    if isinstance(expr, ExistsFilter):
        _graft_path(expr.path, parent, value_pred=None)
        return
    if isinstance(expr, ValueFilter):
        if expr.path is None:
            parent.value_pred = expr.constant
        else:
            _graft_path(expr.path, parent, value_pred=expr.constant)
        return
    raise XPathSyntaxError(
        "disjunctive predicate %r cannot become a conjunctive tree pattern" % (expr,)
    )


def _graft_path(
    path: PathExpr, parent: PatternNode, value_pred: Optional[str]
) -> PatternNode:
    node = parent
    for position, step in enumerate(path.steps):
        test = step.test
        if test == "text()":
            # string comparison against the parent's value
            if value_pred is not None and position == len(path.steps) - 1:
                node.value_pred = value_pred
                return node
            raise XPathSyntaxError("text() steps only make sense in comparisons")
        child = PatternNode(test, axis=step.axis)
        node.add_child(child)
        node = child
        for predicate in step.predicates:
            _filter_to_branches(predicate, node)
    if value_pred is not None:
        node.value_pred = value_pred
    return node


def path_to_pattern(path: Union[str, PathExpr], annotate_last: Sequence[str] = ("ID",)) -> Pattern:
    """Convert a conjunctive path to a tree pattern.

    The final step's node receives the ``annotate_last`` stored
    attributes (default: ``ID``); predicate sub-paths become unannotated
    branches.  Raises on disjunctive filters.
    """
    if isinstance(path, str):
        path = parse_xpath(path)
    if not path.is_conjunctive():
        raise XPathSyntaxError("path %r is not conjunctive" % (path,))
    first = path.steps[0]
    root = PatternNode(first.test, axis=first.axis)
    for predicate in first.predicates:
        _filter_to_branches(predicate, root)
    node = root
    for step in path.steps[1:]:
        child = PatternNode(step.test, axis=step.axis)
        node.add_child(child)
        node = child
        for predicate in step.predicates:
            _filter_to_branches(predicate, node)
    node.store_id = "ID" in annotate_last
    node.store_val = "val" in annotate_last
    node.store_cont = "cont" in annotate_last
    return Pattern(root)
