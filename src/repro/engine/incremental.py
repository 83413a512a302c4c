"""Incremental revalidation of edit streams against a compiled schema.

Production validation traffic is dominated by *small edits to large
documents*: an editor inserts a paragraph, a pipeline patches one
attribute, a sync protocol replaces one subtree.  Re-running the whole
validator per edit costs O(document); the paper's single-type restriction
makes O(edit footprint) possible instead.  By EDC, an element's type is a
function of its parent's type and its own label alone — so an edit to the
children of one element can never change the type (or the verdict) of
anything outside that element's content word and the new subtree itself:

* **insert/delete/replace of a child** re-runs only the touched parent's
  content word against its content-model DFA.  The per-element DFA state
  path recorded at validation time (the same memo the provenance layer of
  PR 4 records) lets even that be partial: states up to the edit offset
  replay from the memo, and only the suffix runs the dense row loop.
* **a new subtree** is typed and checked by the ordinary validator walk —
  its root's type is forced by the parent's type and its label, so the
  walk never looks outside the subtree.
* **attribute and text edits** recheck one element's attribute masks or
  mixedness flag; the content word is untouched.

:class:`ValidatedDocument` is the handle pairing an
:class:`~repro.xmlmodel.tree.XMLDocument` with its
:class:`~repro.engine.compiler.CompiledSchema` and the per-element
provenance (type assignment + DFA state path + locally attributed
violations).  All edits MUST go through its API — mutating the underlying
tree directly leaves the memo stale.  After every edit the handle's
:meth:`report` agrees with a from-scratch run of the tree or streaming
validator on verdict, violation multiset, and typing (the conformance
harness's ``incremental`` leg enforces this on seeded edit storms).

Observability: ``engine.incremental.*`` counters (documents, edits by
operation, nodes typed, memo hits) and ``engine.incremental.build`` /
``engine.incremental.edit`` spans.
"""

from __future__ import annotations

import contextlib
import time

from repro.engine.compiler import CompiledSchema
from repro.errors import PatchError, SchemaError
from repro.observability import default_registry
from repro.observability.tracing import span
from repro.xmlmodel.tree import XMLDocument, XMLElement
from repro.xsd.validator import XSDValidationReport


class _NodeState:
    """Per-element provenance: the memo incremental revalidation replays.

    Attributes:
        type_id: the element's compiled type id (unique typing, Def. 2).
        path: the element's slash path (stable: labels never change in
            place — ``replace_subtree`` swaps whole nodes).
        states: content-DFA state path (seen-masks for a bag type);
            ``states[0] == 0`` and one state is appended per *recognized*
            child, exactly the ``dfa_states`` tuple the provenance
            recorder keeps.
        recognized: True iff every child's label is declared under this
            type (only then is the content word checked for acceptance,
            mirroring both reference validators).
        child_viols: "not allowed under" messages, one per unrecognized
            child.
        content_viol: the children-don't-match message, or ``None``.
        text_viol: the may-not-contain-text message, or ``None``.
        attr_viols: missing-required / undeclared attribute messages.
    """

    __slots__ = ("type_id", "path", "states", "recognized", "child_viols",
                 "content_viol", "text_viol", "attr_viols")

    def __init__(self, type_id, path):
        self.type_id = type_id
        self.path = path
        self.states = [0]
        self.recognized = True
        self.child_viols = []
        self.content_viol = None
        self.text_viol = None
        self.attr_viols = []

    def local_violations(self):
        """This element's violations, in the tree validator's order."""
        out = list(self.child_viols)
        if self.content_viol is not None:
            out.append(self.content_viol)
        if self.text_viol is not None:
            out.append(self.text_viol)
        out.extend(self.attr_viols)
        return out


class ValidatedDocument:
    """An XML tree + compiled schema + per-element provenance, editable.

    Args:
        document: an :class:`~repro.xmlmodel.tree.XMLDocument` (or a bare
            :class:`~repro.xmlmodel.tree.XMLElement`, wrapped).  The
            handle takes ownership: edit only through this API.
        schema: a :class:`CompiledSchema`, or a formal
            :class:`~repro.xsd.model.XSD` compiled through the default
            schema cache.

    The initial construction performs one full validation walk (the same
    cost as a single from-scratch validation); every subsequent edit
    revalidates only its footprint.
    """

    __slots__ = ("document", "schema", "_nodes", "_invalid",
                 "_root_declared")

    def __init__(self, document, schema, cache=None):
        if isinstance(document, XMLElement):
            document = XMLDocument(document)
        if not isinstance(schema, CompiledSchema):
            from repro.engine.cache import compile_cached

            schema = compile_cached(schema, cache)
        self.document = document
        self.schema = schema
        self._nodes = {}
        self._invalid = set()
        self._root_declared = False
        registry = default_registry()
        registry.counter("engine.incremental.documents").inc()
        with span("engine.incremental.build") as trace:
            self._build()
            trace.set_attribute("nodes", len(self._nodes))

    # -- initial walk ------------------------------------------------------
    def _build(self):
        self._nodes.clear()
        self._invalid.clear()
        root = self.document.root
        type_id = self.schema.start.get(root.name)
        self._root_declared = type_id is not None
        if self._root_declared:
            self._type_subtree(root, type_id, "/" + root.name)

    def _type_subtree(self, node, type_id, path):
        """Validate and record one subtree top-down (iterative).

        The subtree's root type is forced by the caller (parent type +
        label, per EDC); children resolve through the compiled tables.
        Returns the number of elements typed (skipped subtrees under
        unrecognized children are not typed, matching the reference
        validators).
        """
        schema = self.schema
        types = schema.types
        name_ids = schema.name_ids
        nodes = self._nodes
        typed = 0
        stack = [(node, type_id, path)]
        while stack:
            node, type_id, path = stack.pop()
            state = _NodeState(type_id, path)
            nodes[id(node)] = state
            typed += 1
            compiled = types[type_id]
            self._check_attributes(node, compiled, state)
            self._check_text(node, compiled, state)
            self._run_content(node, compiled, state, offset=0)
            self._refresh_validity(node, state)
            child_types = compiled.child_types
            for child in node.children:
                interned = name_ids.get(child.name)
                if interned is not None and child_types[interned] >= 0:
                    stack.append((child, child_types[interned],
                                  f"{path}/{child.name}"))
        default_registry().counter(
            "engine.incremental.nodes_typed"
        ).inc(typed)
        return typed

    # -- per-element checks (message-compatible with both validators) ------
    def _check_attributes(self, node, compiled, state):
        viols = []
        attributes = node.attributes
        for required in compiled.required_attrs:
            if required not in attributes:
                viols.append(
                    f"{state.path}: element <{node.name}> is missing "
                    f"required attribute {required!r}"
                )
        declared = compiled.declared_attrs
        for attr_name in attributes:
            if attr_name not in declared:
                viols.append(
                    f"{state.path}: element <{node.name}> has undeclared "
                    f"attribute {attr_name!r}"
                )
        state.attr_viols = viols

    def _check_text(self, node, compiled, state):
        if not compiled.mixed and node.has_text():
            state.text_viol = (
                f"{state.path}: element <{node.name}> "
                f"(type {compiled.name}) may not contain text"
            )
        else:
            state.text_viol = None

    def _run_content(self, node, compiled, state, offset):
        """Re-run the content word from ``offset``, replaying the memo.

        ``state.states[:offset + 1]`` is reused verbatim when the prefix
        is trustworthy (every earlier child was recognized, so the memo
        aligns with child positions); otherwise the word replays from
        the initial state.  The forward loop steps the type's dense rows,
        or for a bag its seen-mask exactly as ``ContentBag.step`` does
        (the memo is then a list of masks).
        """
        registry = default_registry()
        registry.counter("engine.incremental.content_replays").inc()
        children = node.children
        if state.recognized and 0 < offset < len(state.states):
            states = state.states[:offset + 1]
            begin = offset
            registry.counter("engine.incremental.memo_hits").inc()
        else:
            states = [0]
            begin = 0
        current = states[-1]
        recognized = True
        viols = []
        rows = compiled.dense_rows
        child_types = compiled.child_types
        bag = compiled.dense_bag
        name_ids = self.schema.name_ids
        for child in children[begin:]:
            interned = name_ids.get(child.name)
            if interned is None or child_types[interned] < 0:
                recognized = False
                viols.append(
                    f"{state.path}: element <{child.name}> is not "
                    f"allowed under <{node.name}> "
                    f"(type {compiled.name})"
                )
                continue
            if bag is None:
                current = rows[current][interned]
            else:  # a repeated once-member sets the dead bit
                bit = bag[0][interned]
                current |= bag[3] if current & bit & bag[1] else bit
            states.append(current)
        if bag is None:
            accepted = compiled.acc_bits >> current & 1
        else:
            accepted = current & (bag[2] | bag[3]) == bag[2]
        state.states = states
        state.recognized = recognized
        state.child_viols = viols
        if recognized and not accepted:
            shown = " ".join(child.name for child in children)
            state.content_viol = (
                f"{state.path}: children of <{node.name}> "
                f"[{shown or 'none'}] do not match the content model of "
                f"type {compiled.name}"
            )
        else:
            state.content_viol = None

    # -- edit API ----------------------------------------------------------
    def node_at(self, path):
        """The element at a child-index path (``()`` is the root).

        Raises :class:`~repro.errors.PatchError` when an index is out
        of range, with the offending prefix named (the same contract as
        :func:`repro.xmlmodel.patch.resolve`).
        """
        node = self.document.root
        for position, index in enumerate(path):
            if not 0 <= index < len(node.children):
                prefix = "/".join(str(i) for i in path[:position + 1])
                raise PatchError(
                    f"patch path /{prefix} does not exist: <{node.name}> "
                    f"has {len(node.children)} child(ren)"
                )
            node = node.children[index]
        return node

    def insert_child(self, parent, index, child, text_after=""):
        """Insert ``child`` under ``parent`` at ``index``; revalidate.

        Only the parent's content word (from ``index`` on) and the new
        subtree are revalidated; every element outside that footprint
        keeps its provenance verbatim.
        """
        with self._edit("insert_child") as trace:
            parent.insert(index, child, text_after)
            trace.set_attribute("subtree", sum(1 for __ in child.iter()))
            self._after_child_edit(parent, index, new_child=child)

    def delete_child(self, parent, index):
        """Delete the child at ``index``; revalidate the parent's word.

        Returns the detached subtree (its provenance is dropped — a
        re-inserted subtree is retyped like any new one).
        """
        with self._edit("delete_child"):
            removed = parent.remove_child(index)
            self._purge(removed)
            self._after_child_edit(parent, index)
        return removed

    def replace_subtree(self, node, replacement):
        """Replace ``node`` (possibly the root) with ``replacement``.

        Replacing the root re-runs the whole initial walk (the footprint
        *is* the document); anything else revalidates one content word
        plus the new subtree.  Returns the detached old subtree.
        """
        with self._edit("replace_subtree") as trace:
            trace.set_attribute(
                "subtree", sum(1 for __ in replacement.iter())
            )
            parent = node.parent
            if parent is None:
                if node is not self.document.root:
                    raise SchemaError(
                        "replace_subtree target is not part of this "
                        "document"
                    )
                if replacement.parent is not None:
                    raise SchemaError(
                        f"element <{replacement.name}> already has a "
                        f"parent <{replacement.parent.name}>"
                    )
                self.document.root = replacement
                self._purge(node)
                self._build()
                return node
            # Locate by identity: list.index would use XMLElement's
            # *value* equality and can pick the wrong (equal-valued)
            # sibling, corrupting the provenance bookkeeping.
            index = next(
                i for i, sibling in enumerate(parent.children)
                if sibling is node
            )
            # Preserve the text runs around the replaced node exactly
            # (remove_child would merge them).
            before = parent.texts[index]
            text_after = parent.texts[index + 1]
            parent.remove_child(index)
            parent.texts[index] = before
            self._purge(node)
            parent.insert(index, replacement, text_after)
            self._after_child_edit(parent, index, new_child=replacement)
        return node

    def set_attribute(self, node, name, value):
        """Set (or, with ``value=None``, remove) one attribute.

        Only the touched element's attribute checks re-run; the content
        word and every other element are untouched.
        """
        with self._edit("set_attribute"):
            if value is None:
                node.attributes.pop(name, None)
            else:
                node.attributes[name] = value
            state = self._nodes.get(id(node))
            if state is not None:
                self._check_attributes(
                    node, self.schema.types[state.type_id], state
                )
                self._refresh_validity(node, state)

    def set_text(self, node, text, index=0):
        """Replace the text run at ``index`` (before child ``index``).

        Only the touched element's mixedness check re-runs.
        """
        with self._edit("set_text"):
            if not 0 <= index < len(node.texts):
                raise SchemaError(
                    f"text index {index} out of range for element "
                    f"<{node.name}> with {len(node.children)} child(ren)"
                )
            node.texts[index] = text
            state = self._nodes.get(id(node))
            if state is not None:
                self._check_text(
                    node, self.schema.types[state.type_id], state
                )
                self._refresh_validity(node, state)

    # -- edit plumbing -----------------------------------------------------
    @contextlib.contextmanager
    def _edit(self, op):
        registry = default_registry()
        registry.counter("engine.incremental.edits").inc()
        registry.counter(f"engine.incremental.edits.{op}").inc()
        started = time.perf_counter_ns()
        with span("engine.incremental.edit") as trace:
            trace.set_attribute("op", op)
            yield trace
        registry.histogram("engine.incremental.edit_ns").observe(
            time.perf_counter_ns() - started
        )

    def _after_child_edit(self, parent, index, new_child=None):
        """Revalidate the footprint of a child insert/delete/replace."""
        state = self._nodes.get(id(parent))
        if state is None:
            # The parent lives in a skipped subtree (or under an
            # undeclared root): structurally applied, nothing to check.
            return
        compiled = self.schema.types[state.type_id]
        self._run_content(parent, compiled, state, offset=index)
        # insert/delete may move character data between runs.
        self._check_text(parent, compiled, state)
        self._refresh_validity(parent, state)
        if new_child is not None:
            interned = self.schema.name_ids.get(new_child.name)
            if interned is not None and compiled.child_types[interned] >= 0:
                self._type_subtree(
                    new_child, compiled.child_types[interned],
                    f"{state.path}/{new_child.name}",
                )

    def _purge(self, subtree):
        nodes = self._nodes
        invalid = self._invalid
        for node in subtree.iter():
            key = id(node)
            nodes.pop(key, None)
            invalid.discard(key)

    def _refresh_validity(self, node, state):
        """Keep the invalid-element index in step with ``state``."""
        bad = (
            not state.recognized
            or state.content_viol is not None
            or state.text_viol is not None
            or bool(state.attr_viols)
        )
        if bad:
            self._invalid.add(id(node))
        else:
            self._invalid.discard(id(node))

    # -- reporting ---------------------------------------------------------
    @property
    def valid(self):
        """True iff the current tree conforms (O(1): an indexed check)."""
        return self._root_declared and not self._invalid

    def report(self):
        """An :class:`XSDValidationReport` for the *current* tree.

        Violations and typing agree with a from-scratch run of the tree
        validator (violation order included: both walk the typed nodes
        pre-order and emit each element's violations before its
        children's).  The streaming validator agrees on the multiset.
        """
        report = XSDValidationReport()
        root = self.document.root
        if not self._root_declared:
            report.violations.append(
                f"root element <{root.name}> is not declared "
                f"(allowed: {list(self.schema.start_names)})"
            )
            return report
        nodes = self._nodes
        types = self.schema.types
        # Pre-order over typed nodes, assigning sibling ordinals over
        # recognized children only (exactly the reference validators).
        stack = [(root, f"/{root.name}[1]")]
        while stack:
            node, typed_path = stack.pop()
            state = nodes[id(node)]
            report.typing[typed_path] = types[state.type_id].name
            report.violations.extend(state.local_violations())
            ordinals = {}
            typed_children = []
            for child in node.children:
                if id(child) not in nodes:
                    continue
                ordinal = ordinals[child.name] = (
                    ordinals.get(child.name, 0) + 1
                )
                typed_children.append(
                    (child, f"{typed_path}/{child.name}[{ordinal}]")
                )
            stack.extend(reversed(typed_children))
        return report

    def provenance_of(self, node):
        """``(type name, DFA state path)`` for one element, or ``None``.

        The state path is the same tuple PR 4's provenance layer records
        (initial state 0, one state per recognized child).
        """
        state = self._nodes.get(id(node))
        if state is None:
            return None
        return (
            self.schema.types[state.type_id].name, tuple(state.states)
        )

    def __len__(self):
        """The number of typed elements."""
        return len(self._nodes)

    def __repr__(self):
        return (
            f"<ValidatedDocument root={self.document.root.name} "
            f"typed={len(self._nodes)} valid={self.valid}>"
        )
