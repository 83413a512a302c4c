"""XML documents as finite, rooted, ordered, labeled, unranked trees.

This mirrors the paper's Section 4.1 terminology exactly:

* ``anc_str(v)`` — the ancestor-string: labels on the path from the root
  down to (and including) ``v``.
* ``ch_str(v)`` — the child-string: labels of the children of ``v`` from
  left to right (the paper's "content of v").

Elements carry attributes and mixed content (text interleaved with child
elements); the formal model ignores text and attributes, the practical
validators use them.
"""

from __future__ import annotations

from types import MappingProxyType

from repro.errors import ParseError, SchemaError

_LEAF_TEXTS = ("",)
"""The text runs every leaf without text shares (one empty run).  The
first write to a leaf's runs swaps this tuple for a list
(:meth:`XMLElement.set_run`, :meth:`XMLElement._first_child`)."""

_NO_ATTRIBUTES = MappingProxyType({})
"""The read-only empty attribute map every parsed element without
attributes shares (:meth:`XMLElement.from_events` and the byte tier's
``fold_tree`` hand it out).  :meth:`XMLElement.set_attribute` swaps in a
dict of the element's own on the first write; a direct write raises
``TypeError`` instead of writing through to every such element."""


class XMLElement:
    """One element node of an XML tree.

    Attributes:
        name: the element name (label).
        attributes: attribute name -> string value: a ``dict``, or, for a
            parsed element without attributes, the shared read-only
            :data:`_NO_ATTRIBUTES`.
        children: the ordered :class:`XMLElement` children: a list, or,
            for a leaf, the shared empty tuple ``()``.
        texts: mixed-content text runs; ``texts[i]`` is the text appearing
            before ``children[i]`` and ``texts[len(children)]`` the trailing
            run, so ``len(texts) == len(children) + 1`` always holds.  A
            list, or, for a leaf without text, the shared run
            :data:`_LEAF_TEXTS` (``("",)``).
        parent: the parent element, or ``None`` for a root.
        record: the incremental engine's record of this element
            (:class:`~repro.engine.incremental.ValidatedDocument`), or
            ``None`` when no open typed it.  The newest handle opened on
            a tree owns the records in it.

    Leaves share their empties, so a tree holds no empty list per leaf:
    every builder (this constructor, :meth:`from_events`, the byte
    tier's ``fold_tree``) makes them, and every writer (:meth:`insert`,
    :meth:`append`, :meth:`append_text`, :meth:`set_run`) swaps in lists
    on its first write.  So write ``children`` and ``texts`` through
    these methods only, and test a node for children by emptiness
    (``if node.children``): a leaf may hold ``()`` or ``[]`` (after its
    last child was removed).  Equality compares both by value.  Parsed
    elements without attributes share one read-only map too; this
    constructor gives every element a dict of its own, and
    :meth:`set_attribute`, the one writer a parsed tree needs, swaps in
    a dict on the first write.
    """

    __slots__ = ("name", "attributes", "children", "texts", "parent",
                 "record")

    def __init__(self, name, attributes=None, children=None, text=None):
        self.name = name
        self.attributes = dict(attributes or {})
        self.children = ()
        self.texts = [text] if text else _LEAF_TEXTS
        self.parent = None
        self.record = None
        for child in children or ():
            self.append(child)

    def set_attribute(self, name, value):
        """Set attribute ``name`` to ``value`` (``None`` removes it),
        swapping the shared read-only empty map for a dict of this
        element's own on the first write."""
        attributes = self.attributes
        if value is None:
            if name in attributes:
                del attributes[name]
        else:
            if attributes is _NO_ATTRIBUTES:
                attributes = self.attributes = {}
            attributes[name] = value

    def append(self, child, text_after=""):
        """Append a child element (and optionally text following it)."""
        self.insert(len(self.children), child, text_after)

    def append_text(self, text):
        """Append character data at the current end of the content."""
        self.set_run(-1, self.texts[-1] + text)

    def set_run(self, index, text):
        """Replace the text run at ``index`` (before child ``index``;
        ``-1`` is the trailing run), swapping a leaf's shared run for a
        list of its own."""
        texts = self.texts
        if texts is _LEAF_TEXTS:
            texts = self.texts = [""]
        texts[index] = text

    def insert(self, index, child, text_after=""):
        """Insert a child element at ``index`` (and text following it).

        ``index`` may be ``len(self.children)`` (append).  The ``texts``
        invariant (``len(texts) == len(children) + 1``) is maintained:
        the text run that used to follow position ``index`` now follows
        the inserted child.  A leaf's first child swaps its shared
        empties for lists.  Raises :class:`~repro.errors.SchemaError`
        when ``child`` has a parent, or is this element or its root (a
        cycle).
        """
        if child.parent is not None:
            raise SchemaError(
                f"element <{child.name}> already has a parent "
                f"<{child.parent.name}>"
            )
        self._refuse_cycle(child)
        children = self.children
        if not 0 <= index <= len(children):
            raise IndexError(
                f"insert index {index} out of range for "
                f"{len(children)} children"
            )
        child.parent = self
        if children:
            children.insert(index, child)
            self.texts.insert(index + 1, text_after)
        else:
            self._first_child(child, text_after)

    def _refuse_cycle(self, child):
        """Raise :class:`~repro.errors.SchemaError` if making the
        parentless ``child`` a child of this element would make a cycle:
        ``child`` is this element or its root.  Walks the parent links
        only when ``child`` has children (a leaf can be no ancestor)."""
        if child is self or child.children and child is self._top():
            raise SchemaError(
                f"element <{child.name}> is <{self.name}> or its ancestor: "
                "making it a child would make a cycle"
            )

    def _top(self):
        """The parentless ancestor of this element (itself for a
        root)."""
        node = self
        while node.parent is not None:
            node = node.parent
        return node

    def _first_child(self, child, text_after=""):
        """Give a leaf its first child: lists of its own replace the
        shared empties.  :meth:`insert` and the folds (:meth:`from_events`,
        the byte tier's ``fold_tree``) all swap them here."""
        self.children = [child]
        self.texts = [self.texts[0], text_after]

    def remove_child(self, index):
        """Detach and return the child at ``index``.

        The text run that followed the removed child is merged into the
        run that preceded it, so no character data is lost and the
        ``texts`` invariant holds.
        """
        if not 0 <= index < len(self.children):
            raise IndexError(
                f"remove index {index} out of range for "
                f"{len(self.children)} children"
            )
        child = self.children.pop(index)
        child.parent = None
        self.texts[index] += self.texts.pop(index + 1)
        return child

    def replace_child_at(self, index, replacement):
        """Put ``replacement`` in the child at ``index``'s place.

        Returns the detached child.  The text runs around it stay
        exactly as they were, and nothing shifts: O(1), or O(depth) for
        a replacement with children (the cycle check of :meth:`insert`).
        """
        if replacement.parent is not None:
            raise SchemaError(
                f"element <{replacement.name}> already has a parent "
                f"<{replacement.parent.name}>"
            )
        self._refuse_cycle(replacement)
        if not 0 <= index < len(self.children):
            raise IndexError(
                f"replace index {index} out of range for "
                f"{len(self.children)} children"
            )
        child = self.children[index]
        child.parent = None
        replacement.parent = self
        self.children[index] = replacement
        return child

    def replace_child(self, child, replacement):
        """Put ``replacement`` in ``child``'s place; returns the index.

        ``child`` is found by identity (value equality could pick an
        equal-valued sibling at another position); callers that know the
        index use :meth:`replace_child_at`, which this delegates to.
        Raises :class:`~repro.errors.SchemaError` when ``child`` is not a
        child of this element.
        """
        for index, sibling in enumerate(self.children):
            if sibling is child:
                self.replace_child_at(index, replacement)
                return index
        raise SchemaError(
            f"element <{child.name}> is not a child of <{self.name}>"
        )

    # -- the paper's string notions --------------------------------------
    def anc_str(self):
        """The ancestor-string of this node (labels from the root to here)."""
        path = []
        node = self
        while node is not None:
            path.append(node.name)
            node = node.parent
        path.reverse()
        return path

    def path_from(self, root):
        """This node's slash path from ``root`` (itself or an ancestor)
        down, e.g. ``/doc/a``; ``root`` may have a parent of its own."""
        names = [self.name]
        node = self
        while node is not root:
            node = node.parent
            names.append(node.name)
        names.reverse()
        return "/" + "/".join(names)

    def ch_str(self):
        """The child-string of this node (labels of children, in order)."""
        return [child.name for child in self.children]

    # -- convenience ------------------------------------------------------
    @property
    def text(self):
        """All character data of this element, concatenated."""
        return "".join(self.texts)

    def has_text(self):
        """True iff some non-whitespace character data is present."""
        return any(run.strip() for run in self.texts)

    def iter(self):
        """Yield this element and every descendant in document order.

        Walks an explicit stack, so any depth the parser accepts is
        walked without recursion.
        """
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            if node.children:
                stack.extend(reversed(node.children))

    def events(self):
        """Yield this subtree as SAX-style events.

        The stream is exactly what :func:`repro.xmlmodel.parser.iter_events`
        would produce for this subtree's serialization: ``("start", name,
        attributes)`` / ``("text", data)`` / ``("end", name)``, with empty
        text runs suppressed.  The attributes dict is the node's own (not
        copied) — consumers must not mutate it.
        """
        stack = [(self, 0)]
        yield ("start", self.name, self.attributes)
        if self.texts[0]:
            yield ("text", self.texts[0])
        while stack:
            node, index = stack[-1]
            if index >= len(node.children):
                stack.pop()
                yield ("end", node.name)
                if stack:
                    parent, parent_index = stack[-1]
                    if parent.texts[parent_index]:
                        yield ("text", parent.texts[parent_index])
                continue
            stack[-1] = (node, index + 1)
            child = node.children[index]
            yield ("start", child.name, child.attributes)
            if child.texts[0]:
                yield ("text", child.texts[0])
            stack.append((child, 0))

    @classmethod
    def from_events(cls, events, strays=None):
        """Fold a SAX-style event stream into the element it spells.

        The inverse of :meth:`events`, and how the char tier builds trees
        (:func:`repro.xmlmodel.parser.parse_document` folds
        ``iter_events`` when the byte tier falls back, and
        ``parse_fragment`` always) and the streaming validator its own
        tree of an event stream: adjacent text events concatenate into
        one run, and text outside the element is ignored.  The stream is
        drained to its end, so an error raised after the element closes
        still propagates.  Each start event's attributes dict is
        adopted, not copied, except that an empty one gives way to the
        shared read-only :data:`_NO_ATTRIBUTES`.  The fold fills the
        node slots directly (this class owns them), leaves sharing their
        empties, and walks back up by ``parent``.

        Args:
            events: the stream.
            strays: a list to append each further root to, folded whole
                (the validator reports them), instead of raising.

        Raises:
            ParseError: when the stream holds no element or (without
                ``strays``) a second one, ends inside an element, or
                closes an element that is not open.
        """
        new = cls.__new__
        leaf_texts = _LEAF_TEXTS
        no_attributes = _NO_ATTRIBUTES
        root = node = None
        events = iter(events)
        while True:
            try:
                for event in events:
                    kind = event[0]
                    if kind == "start":
                        child = new(cls)
                        child.name = event[1]
                        child.attributes = event[2] or no_attributes
                        child.children = ()
                        child.texts = leaf_texts
                        child.parent = node
                        child.record = None
                        if node is None:
                            if root is None:
                                root = child
                            elif strays is None:
                                raise ParseError(
                                    "document has more than one root element"
                                )
                            else:
                                strays.append(child)
                        elif node.children:
                            node.children.append(child)
                            node.texts.append("")
                        else:
                            node._first_child(child)
                        node = child
                    elif kind == "end":
                        node = node.parent
                    else:
                        texts = node.texts
                        if texts is leaf_texts:
                            node.texts = [event[1]]
                        else:
                            texts[-1] += event[1]
                break
            except AttributeError as error:
                # ``node`` is None outside the element: skip text there
                # and resume; an end event there closes nothing.  (The
                # stream's producer raising AttributeError is not ours.)
                if error.__traceback__.tb_next is not None or node is not None:
                    raise
                if kind == "end":
                    raise ParseError(
                        "end event closes no open element"
                    ) from None
        if node is not None:
            raise ParseError("event stream ends inside an open element")
        if root is None:
            raise ParseError("event stream holds no element")
        return root

    def find(self, name):
        """First child with the given name, or ``None``."""
        for child in self.children:
            if child.name == name:
                return child
        return None

    def find_all(self, name):
        """All children with the given name (list)."""
        return [child for child in self.children if child.name == name]

    def depth(self):
        """Number of ancestors (the root has depth 0)."""
        count = 0
        node = self.parent
        while node is not None:
            count += 1
            node = node.parent
        return count

    def __repr__(self):
        return f"<XMLElement {self.name} children={len(self.children)}>"

    def __eq__(self, other):
        """Equal name, attributes, text runs and children, compared
        pairwise down both subtrees with an explicit stack; runs and
        children compare by value, whether shared tuples or lists."""
        if not isinstance(other, XMLElement):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            mine, theirs = stack.pop()
            if mine is theirs:
                continue
            # A shared run (a tuple) never equals a list, so runs that
            # differ are compared again as lists.
            if (mine.name != theirs.name
                    or mine.attributes != theirs.attributes
                    or mine.texts != theirs.texts
                    and list(mine.texts) != list(theirs.texts)
                    or len(mine.children) != len(theirs.children)):
                return False
            stack.extend(zip(mine.children, theirs.children))
        return True

    def __hash__(self):
        return hash((self.name, tuple(sorted(self.attributes.items()))))


class XMLDocument:
    """A rooted XML document.

    Attributes:
        root: the root :class:`XMLElement`.
    """

    __slots__ = ("root",)

    def __init__(self, root):
        self.root = root

    def iter(self):
        """Yield all elements in document order."""
        yield from self.root.iter()

    def events(self):
        """Yield the document as SAX-style events (see XMLElement.events)."""
        return self.root.events()

    def size(self):
        """The number of element nodes."""
        return sum(1 for __ in self.iter())

    def height(self):
        """The length of the longest root-to-leaf path (in nodes)."""
        best = 0
        stack = [(self.root, 1)]
        while stack:
            node, depth = stack.pop()
            best = max(best, depth)
            for child in node.children:
                stack.append((child, depth + 1))
        return best

    def labels(self):
        """The set of element names occurring in the document."""
        return {node.name for node in self.iter()}

    def __eq__(self, other):
        if not isinstance(other, XMLDocument):
            return NotImplemented
        return self.root == other.root

    def __hash__(self):
        return hash(self.root)

    def __repr__(self):
        return f"<XMLDocument root={self.root.name} size={self.size()}>"


def element(name, *children, attributes=None, text=None):
    """Terse tree-building helper used pervasively in tests and examples.

    ``children`` items may be :class:`XMLElement` nodes or plain strings
    (appended as character data in order)::

        doc = XMLDocument(element("doc", element("a"), "hello", element("b")))
    """
    node = XMLElement(name, attributes=attributes, text=text)
    for child in children:
        if isinstance(child, str):
            node.append_text(child)
        else:
            node.append(child)
    return node
