"""Named-column tuple relations.

A :class:`Relation` is an ordered list of equal-width tuples plus a
schema (tuple of column names).  The maintenance machinery uses two row
flavours:

* *binding relations*, whose cells are document nodes (one column per
  tree-pattern node, named after it);
* *value relations*, whose cells are plain values (IDs, strings),
  produced by projection with stored-attribute extraction.

Relations are deliberately dumb containers; all smarts live in the
operators (:mod:`repro.algebra.operators`,
:mod:`repro.algebra.structural`).
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence, Tuple


class Relation:
    """An ordered bag of tuples with named columns."""

    __slots__ = ("schema", "rows", "_indexes")

    def __init__(self, schema: Sequence[str], rows: Iterable[tuple] = ()):
        self.schema: Tuple[str, ...] = tuple(schema)
        self.rows: List[tuple] = [tuple(row) for row in rows]
        self._indexes: dict = {}
        width = len(self.schema)
        for row in self.rows:
            if len(row) != width:
                raise ValueError(
                    "row width %d does not match schema %r" % (len(row), self.schema)
                )

    # -- schema helpers ------------------------------------------------

    def column_index(self, name: str) -> int:
        try:
            return self.schema.index(name)
        except ValueError:
            raise KeyError("no column %r in schema %r" % (name, self.schema)) from None

    def column(self, name: str) -> List[object]:
        index = self.column_index(name)
        return [row[index] for row in self.rows]

    # -- container protocol ---------------------------------------------

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def __bool__(self) -> bool:
        return bool(self.rows)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Relation)
            and self.schema == other.schema
            and self.rows == other.rows
        )

    def __repr__(self) -> str:
        return "Relation(schema=%r, rows=%d)" % (self.schema, len(self.rows))

    # -- convenience -----------------------------------------------------

    @classmethod
    def single_column(cls, name: str, values: Iterable[object]) -> "Relation":
        return cls((name,), [(value,) for value in values])

    def extend(self, other: "Relation") -> None:
        """Append the rows of a union-compatible relation."""
        if other.schema != self.schema:
            raise ValueError(
                "union-incompatible schemas: %r vs %r" % (self.schema, other.schema)
            )
        self.rows.extend(other.rows)
        self._indexes.clear()

    def replace_rows(self, rows: List[tuple]) -> None:
        """Swap the row list in place, invalidating cached indexes."""
        self.rows = rows
        self._indexes.clear()

    def index_by(self, column: str) -> dict:
        """A cached hash index ``node ID -> rows`` on one column.

        Materialized relations (snowcaps) are probed repeatedly by the
        structural join; the index plays the role of the B-tree a
        disk-resident store would keep.  Invalidated by :meth:`extend`
        and :meth:`replace_rows`; reordering rows does not invalidate
        it (the mapping targets row tuples, not positions).
        """
        index = self._indexes.get(column)
        if index is None:
            from repro.xmldom.dewey import DeweyID
            from repro.xmldom.model import Node

            position = self.column_index(column)
            index = {}
            for row in self.rows:
                cell = row[position]
                key = cell.id if isinstance(cell, Node) else cell
                index.setdefault(key, []).append(row)
            self._indexes[column] = index
        return index

    def reordered(self, schema: Sequence[str]) -> "Relation":
        """The same bag with columns rearranged to ``schema``."""
        schema = tuple(schema)
        if schema == self.schema:
            return self  # column order already matches; skip the row copy
        indices = [self.column_index(name) for name in schema]
        return Relation(schema, [tuple(row[i] for i in indices) for row in self.rows])
