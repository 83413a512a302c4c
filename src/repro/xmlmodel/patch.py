"""RFC 5261-style XML patches over simple child-index paths.

A *patch* is an ordered list of ``<add>``/``<remove>``/``<replace>``
operations — the operation vocabulary of RFC 5261 (An Extensible Markup
Language (XML) Patch Operations Framework) — with one deliberate
simplification: instead of XPath selectors, targets are addressed by
**child-index paths**.  A ``sel`` attribute is a ``/``-separated list of
zero-based child indices walked down from the root; ``sel=""`` (or
``"/"``) is the root itself, ``sel="0/2"`` is the third child of the
first child of the root.  Index paths are trivially unambiguous, cheap
to resolve, and exactly what the incremental revalidation engine's edit
API wants.

The wire format (the patch document itself is plain XML)::

    <patch>
      <add sel="0">​<item id="7"/>​</add>          append element child
      <add sel="0" index="2">​<item/>​</add>       insert at index 2
      <add sel="0/1" type="@color">red</add>     set an attribute
      <replace sel="0/1">​<item/>​</replace>       replace the subtree
      <replace sel="0/1" type="@color">b</replace>
      <replace sel="0" type="text()" index="1">hi</replace>  set a text run
      <remove sel="0/1/2"/>                      delete the subtree
      <remove sel="0/1" type="@color"/>          remove an attribute
    </patch>

(The zero-width markers above are only to keep the docstring readable;
real payloads are ordinary child elements.)

Divergences from RFC 5261, all simplifications: attribute ``<add>`` and
``<replace>`` are both "set" (the RFC errors on add-existing /
replace-missing), attribute ``<remove>`` of an absent attribute is a
no-op, and there is no ``pos=`` keyword — ``index=`` gives the insert
position directly (default: append).

Every operation can be applied two ways, and the two MUST agree (the
conformance harness's ``incremental`` leg and ``make patch-smoke``
enforce it):

* :meth:`Patch.apply_full` mutates a raw tree; the caller revalidates
  from scratch.
* :meth:`Patch.apply_incremental` drives a
  :class:`~repro.engine.incremental.ValidatedDocument`, which
  revalidates only each edit's footprint.

Element payloads are deep-copied at apply time, so one parsed
:class:`Patch` may be applied to any number of documents.
"""

from __future__ import annotations

from repro.errors import PatchError
from repro.resilience.limits import ParserLimits, resolve_limits
from repro.xmlmodel.tree import XMLElement

# The levels a payload sits below the patch document's root: <patch>
# and the operation element (<add>, <replace>).
_WRAPPER_DEPTH = 2


def parse_sel(sel):
    """Parse a ``sel`` attribute into a tuple of child indices."""
    sel = sel.strip().strip("/")
    if not sel:
        return ()
    path = []
    for part in sel.split("/"):
        if not part.isdigit():
            raise PatchError(
                f"bad sel step {part!r} in {sel!r}: expected a "
                f"zero-based child index"
            )
        path.append(int(part))
    return tuple(path)


def format_sel(path):
    """Render a child-index path back into a ``sel`` string."""
    return "/".join(str(index) for index in path)


def resolve(root, path):
    """The element at a child-index ``path`` below ``root``.

    Raises :class:`~repro.errors.PatchError` naming the offending
    prefix when an index is out of range.
    """
    node = root
    for position, index in enumerate(path):
        if not 0 <= index < len(node.children):
            prefix = format_sel(path[:position + 1])
            raise PatchError(
                f"patch path /{prefix} does not exist: <{node.name}> "
                f"has {len(node.children)} child(ren)"
            )
        node = node.children[index]
    return node


def clone_element(node):
    """A deep, parentless copy of ``node`` (attributes, texts, children),
    made with an explicit stack, so any depth is copied."""
    root = XMLElement(node.name, node.attributes, text=node.texts[0])
    stack = [(node, root)]
    while stack:
        source, copy = stack.pop()
        texts = source.texts
        for index, child in enumerate(source.children, 1):
            child_copy = XMLElement(child.name, child.attributes,
                                    text=child.texts[0])
            copy.append(child_copy, texts[index])
            if child.children:
                stack.append((child, child_copy))
    return root


class PatchOp:
    """One patch operation.  Subclasses implement both application modes."""

    __slots__ = ("sel",)

    def __init__(self, sel):
        self.sel = tuple(sel)

    def apply_full(self, document):
        """Mutate ``document`` (an :class:`XMLDocument`) directly."""
        raise NotImplementedError

    def apply_incremental(self, handle):
        """Drive a :class:`ValidatedDocument`'s edit API."""
        raise NotImplementedError

    def to_element(self):
        """The operation as a patch-document element (for serializing)."""
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} sel=/{format_sel(self.sel)}>"


class AddChild(PatchOp):
    """``<add sel index?>`` — insert an element child (default: append)."""

    __slots__ = ("index", "child")

    def __init__(self, sel, child, index=None):
        super().__init__(sel)
        self.child = child
        self.index = index

    def _target_index(self, parent):
        if self.index is None:
            return len(parent.children)
        if not 0 <= self.index <= len(parent.children):
            raise PatchError(
                f"add index {self.index} out of range: "
                f"<{parent.name}> has {len(parent.children)} child(ren)"
            )
        return self.index

    def apply_full(self, document):
        parent = resolve(document.root, self.sel)
        parent.insert(self._target_index(parent), clone_element(self.child))

    def apply_incremental(self, handle):
        parent = handle.node_at(self.sel)
        handle.insert_child(
            parent, self._target_index(parent), clone_element(self.child)
        )

    def to_element(self):
        node = XMLElement("add", attributes={"sel": format_sel(self.sel)})
        if self.index is not None:
            node.attributes["index"] = str(self.index)
        node.append(clone_element(self.child))
        return node


class RemoveChild(PatchOp):
    """``<remove sel/>`` — delete the addressed subtree (not the root)."""

    __slots__ = ()

    def _split(self):
        if not self.sel:
            raise PatchError("cannot <remove> the document root")
        return self.sel[:-1], self.sel[-1]

    def apply_full(self, document):
        parent_path, index = self._split()
        parent = resolve(document.root, parent_path)
        # Resolve through the full path for the precise out-of-range error.
        resolve(document.root, self.sel)
        parent.remove_child(index)

    def apply_incremental(self, handle):
        parent_path, index = self._split()
        handle.node_at(self.sel)
        handle.delete_child(handle.node_at(parent_path), index)

    def to_element(self):
        return XMLElement(
            "remove", attributes={"sel": format_sel(self.sel)}
        )


class ReplaceChild(PatchOp):
    """``<replace sel>`` — swap the addressed subtree (root allowed)."""

    __slots__ = ("child",)

    def __init__(self, sel, child):
        super().__init__(sel)
        self.child = child

    def apply_full(self, document):
        node = resolve(document.root, self.sel)
        replacement = clone_element(self.child)
        if self.sel:
            node.parent.replace_child_at(self.sel[-1], replacement)
        else:
            document.root = replacement

    def apply_incremental(self, handle):
        node = handle.node_at(self.sel)
        replacement = clone_element(self.child)
        if self.sel:
            handle.replace_child(node.parent, self.sel[-1], replacement)
        else:
            handle.replace_subtree(node, replacement)

    def to_element(self):
        node = XMLElement(
            "replace", attributes={"sel": format_sel(self.sel)}
        )
        node.append(clone_element(self.child))
        return node


class SetAttribute(PatchOp):
    """``type="@name"`` — set (``value``) or remove (``value=None``)."""

    __slots__ = ("name", "value")

    def __init__(self, sel, name, value):
        super().__init__(sel)
        self.name = name
        self.value = value

    def apply_full(self, document):
        resolve(document.root, self.sel).set_attribute(self.name, self.value)

    def apply_incremental(self, handle):
        handle.set_attribute(
            handle.node_at(self.sel), self.name, self.value
        )

    def to_element(self):
        verb = "remove" if self.value is None else "replace"
        node = XMLElement(verb, attributes={
            "sel": format_sel(self.sel), "type": f"@{self.name}",
        })
        if self.value is not None:
            node.append_text(self.value)
        return node


class SetText(PatchOp):
    """``type="text()"`` — replace the text run at ``index``."""

    __slots__ = ("index", "text")

    def __init__(self, sel, text, index=0):
        super().__init__(sel)
        self.text = text
        self.index = index

    def apply_full(self, document):
        node = resolve(document.root, self.sel)
        if not 0 <= self.index < len(node.texts):
            raise PatchError(
                f"text index {self.index} out of range for element "
                f"<{node.name}> with {len(node.children)} child(ren)"
            )
        node.set_run(self.index, self.text)

    def apply_incremental(self, handle):
        handle.set_text(
            handle.node_at(self.sel), self.text, index=self.index
        )

    def to_element(self):
        node = XMLElement("replace", attributes={
            "sel": format_sel(self.sel), "type": "text()",
            "index": str(self.index),
        })
        if self.text:
            node.append_text(self.text)
        return node


class Patch:
    """An ordered list of :class:`PatchOp`, applied transactionally-ish.

    Application is sequential and *not* rolled back on failure — a
    failing op raises :class:`~repro.errors.PatchError` (or
    :class:`~repro.errors.SchemaError` from the edit API) with earlier
    ops already applied, mirroring RFC 5261's processing model where a
    patch document is processed in order.
    """

    __slots__ = ("ops",)

    def __init__(self, ops=()):
        self.ops = list(ops)

    def apply_full(self, document):
        """Apply every op to a raw tree (caller revalidates)."""
        for op in self.ops:
            op.apply_full(document)
        return document

    def apply_incremental(self, handle):
        """Apply every op through a :class:`ValidatedDocument`."""
        for op in self.ops:
            op.apply_incremental(handle)
        return handle

    def to_element(self):
        """The whole patch as a ``<patch>`` document element."""
        root = XMLElement("patch")
        for op in self.ops:
            root.append(op.to_element())
        return root

    def __iter__(self):
        return iter(self.ops)

    def __len__(self):
        return len(self.ops)

    def __repr__(self):
        return f"<Patch ops={len(self.ops)}>"


def _payload_element(node):
    """The single element child of an op node (whitespace tolerated)."""
    if len(node.children) != 1:
        raise PatchError(
            f"<{node.name} sel={node.attributes.get('sel', '')!r}> must "
            f"carry exactly one element child, got {len(node.children)}"
        )
    if node.has_text():
        raise PatchError(
            f"<{node.name}> mixes text with its element payload"
        )
    child = node.children[0]
    node.remove_child(0)
    return child


def op_from_element(node):
    """Parse one ``<add>``/``<remove>``/``<replace>`` element."""
    if "sel" not in node.attributes:
        raise PatchError(f"<{node.name}> is missing the sel attribute")
    sel = parse_sel(node.attributes["sel"])
    kind = node.attributes.get("type", "")
    verb = node.name
    if verb not in ("add", "remove", "replace"):
        raise PatchError(
            f"unknown patch operation <{verb}> "
            f"(expected add, remove, or replace)"
        )
    if kind.startswith("@"):
        name = kind[1:]
        if not name:
            raise PatchError(f"<{verb}> has an empty attribute selector")
        if verb == "remove":
            if node.children or node.has_text():
                raise PatchError(
                    "<remove> of an attribute takes no content"
                )
            return SetAttribute(sel, name, None)
        return SetAttribute(sel, name, node.text)
    if kind == "text()":
        if verb == "add":
            raise PatchError(
                "text() runs are replaced, not added: use "
                '<replace type="text()" index="...">'
            )
        if verb == "remove":
            return SetText(sel, "", int(node.attributes.get("index", 0)))
        return SetText(sel, node.text, int(node.attributes.get("index", 0)))
    if kind:
        raise PatchError(
            f"unknown selector type {kind!r} "
            f"(expected @attribute or text())"
        )
    if verb == "add":
        index = node.attributes.get("index")
        if index is not None and not index.isdigit():
            raise PatchError(f"bad add index {index!r}")
        return AddChild(
            sel, _payload_element(node),
            None if index is None else int(index),
        )
    if verb == "remove":
        if node.children or node.has_text():
            raise PatchError("<remove> takes no content")
        return RemoveChild(sel)
    return ReplaceChild(sel, _payload_element(node))


def patch_from_document(document):
    """Build a :class:`Patch` from a parsed ``<patch>`` document."""
    root = document.root if hasattr(document, "root") else document
    if root.name != "patch":
        raise PatchError(
            f"patch document root must be <patch>, got <{root.name}>"
        )
    return Patch([op_from_element(node) for node in list(root.children)])


def parse_patch(text, limits=None):
    """Parse patch-document text into a :class:`Patch`.

    ``limits`` (explicit, else ambient, else the defaults) cap the patch
    document as :func:`~repro.xmlmodel.parser.parse_document` caps any
    document, except that ``max_depth`` caps each payload: the
    ``<patch>`` and operation wrappers put a payload's root two levels
    down, so the document parses with ``max_depth + 2``.  So a payload
    may be as deep as a document, as when the op is built in memory; a
    deeper one's ``LimitExceeded`` names the patch document's depth.
    """
    from repro.xmlmodel.parser import parse_document

    limits = resolve_limits(limits)
    if limits.max_depth is not None:
        caps = limits.to_dict()
        caps["max_depth"] += _WRAPPER_DEPTH
        limits = ParserLimits(**caps)
    return patch_from_document(parse_document(text, limits=limits))


def write_patch(patch, indent=None):
    """Serialize a :class:`Patch` back to patch-document text.

    Compact by default: pretty-printing would introduce whitespace text
    runs inside element payloads, making the round trip lossy.  (As with
    all serialization here, whitespace-*only* text runs are insignificant
    and may be dropped by the writer.)
    """
    from repro.xmlmodel.writer import write_element

    return write_element(patch.to_element(), indent=indent) + "\n"


def snapshot_paths(root):
    """Every ``(node, path)`` pair below ``root``, one full walk.

    Feed the result to :func:`random_op` via ``nodes=`` to amortize the
    walk across many ops on a large document.  Structural edits make a
    snapshot stale — its paths may then fail to resolve (a
    :class:`~repro.errors.PatchError`) or address a shifted sibling, so
    refresh it periodically when the stream mutates the tree.
    """
    nodes = []
    stack = [(root, ())]
    while stack:
        node, path = stack.pop()
        nodes.append((node, path))
        for index, child in enumerate(node.children):
            stack.append((child, path + (index,)))
    return nodes


def random_op(root, rng, labels, attributes=("color", "name", "id"),
              nodes=None):
    """One random patch op that is *structurally* applicable to ``root``.

    Used by the edit-storm benchmark, ``make patch-smoke``, and the
    conformance harness's ``incremental`` leg: the op addresses a node
    that exists right now, so applying it can only fail validation, not
    resolution.  The op may well make the document invalid — that is
    the point (the two application modes must agree on *every* verdict).

    ``nodes`` (from :func:`snapshot_paths`) skips the per-call tree walk
    — the O(n) walk, not the op itself, dominates on large documents.
    """
    if nodes is None:
        nodes = snapshot_paths(root)
    node, path = nodes[rng.randrange(len(nodes))]
    labels = list(labels)
    roll = rng.random()
    if roll < 0.30:
        child = XMLElement(rng.choice(labels))
        if rng.random() < 0.3:
            child.append(XMLElement(rng.choice(labels)))
        index = rng.randrange(len(node.children) + 1)
        return AddChild(path, child, index)
    if roll < 0.50 and node.children:
        index = rng.randrange(len(node.children))
        return RemoveChild(path + (index,))
    if roll < 0.70 and path:
        replacement = XMLElement(rng.choice(labels))
        if rng.random() < 0.5:
            replacement.append(XMLElement(rng.choice(labels)))
        return ReplaceChild(path, replacement)
    if roll < 0.85:
        name = rng.choice(list(attributes))
        value = None if rng.random() < 0.3 else f"v{rng.randrange(10)}"
        return SetAttribute(path, name, value)
    return SetText(
        path,
        rng.choice(["", "hello", "42"]),
        rng.randrange(len(node.texts)),
    )
