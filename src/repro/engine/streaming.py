"""Streaming validation against a compiled schema.

Text and bytes first take the dense scan
(:meth:`StreamingValidator._scan_dense`): one pass over the document's
byte chunks that steps each open element's content model on the
compiled tables and builds neither a tree nor an event.  It commits
only valid documents.  Everything else is validated by
:class:`~repro.engine.incremental.ValidatedDocument`'s one-pass walk,
the loop that also opens documents for editing: by Definition 2's
single-type restriction an element's type is a function of its parent's
type and its own label, so the content step that reads a child's column
checks the child and types it.  The walk runs over

* the tree the byte tier folds from the document
  (:func:`repro.xmlmodel.tokenizer.fold_tree`) when the scan falls back;
* a tree the validator folds from an event stream
  (:meth:`StreamingValidator.validate_events`): the char tier's events
  at a root exit or when the fold refuses the document, and the events
  of a document or element passed in, which is refolded, never walked in
  place.

The report is interchangeable with the tree validator's: the same
:class:`~repro.xsd.validator.XSDValidationReport` class, the same typing
keys in the same order, and the same violation strings in the same order
(typed elements pre-order, each one's own violations before its
children's; on an event stream a second root's violation comes last).
The differential test suites pin this down.  The per-element checks and
messages are the compiled type's and the walk's, shared with the edit
API.  A stream that does not spell one element (empty, ending inside an
element, or closing one that is not open) is a
:class:`~repro.errors.ParseError`.

Reports write their violations eagerly and build their typing map on
its first read: from the document's bytes after a dense commit or a
fold rerun, and from the validator's tree after an event stream.

Memory: the dense scan holds one register tuple per open element.  Every
walk holds its tree and its memo (the records on the tree's elements)
until ``validate`` returns.  A fold rerun's report keeps the document's
bytes, and an event stream's report keeps the validator's tree, cleared
of records, until its typing is read (DESIGN §8).
"""

from __future__ import annotations

from functools import partial
from itertools import chain, islice
from time import perf_counter_ns

from repro.engine.compiler import CompiledSchema
from repro.engine.incremental import ValidatedDocument, _clear, _typing_of
from repro.errors import ParseError
from repro.observability import default_registry
from repro.observability.budget import current_budget
from repro.observability.tracing import NULL_SPAN, span
from repro.resilience.faults import probe
from repro.resilience.limits import ParserLimits, resolve_limits
from repro.xmlmodel.parser import _clocked, _iter_events, iter_events
from repro.xmlmodel.tokenizer import (
    _CHECK_CHUNKS,
    END,
    START,
    FallbackRequired,
    body_start,
    check_after_root,
    fold_tree,
    parse_chunk,
    split_body,
)
from repro.xmlmodel.tree import XMLElement
from repro.xsd.validator import XSDValidationReport

_FALLBACK = FallbackRequired()
# Raised at the scan's root exits (an undeclared or a second root): the
# char tier answers those at once, where a fold would first build the
# whole tree.
_ROOT_FALLBACK = FallbackRequired()

_UNLIMITED = ParserLimits.unlimited()

# Every validated document counts into these, bound once from the
# default registry: a document looks up no metric by name.
_metrics = default_registry()
_ELEMENTS = _metrics.counter("engine.stream.elements")
_DOCS = _metrics.counter("engine.stream.docs")
_VIOLATIONS = _metrics.counter("engine.stream.violations")
_DOC_NS = _metrics.histogram("engine.stream.doc_ns")
_DENSE_DOCS = _metrics.counter("engine.dense.docs")
_DENSE_FALLBACKS = _metrics.counter("engine.dense.fallbacks")
_FOLD_RERUNS = _metrics.counter("engine.fold.reruns")


class _LazyReport(XSDValidationReport):
    """A report whose typing map is built on its first read.

    Violations are written eagerly.  The typing map (a dict entry and
    an indexed path per element) costs about as much as validation
    itself, and throughput-oriented callers never read it, so
    ``build(source)`` makes it on first access and the source is then
    dropped: :meth:`StreamingValidator._materialize_typing` re-walks the
    document bytes of a dense commit or a fold rerun (the chunk memo
    makes the re-walk cheap), and :func:`repro.engine.incremental._typing_of`
    types the validator's own tree of an event stream from the schema's
    columns, so the walk's memo goes when validation returns.
    """

    __slots__ = ("_typing", "_build", "_source")

    def __init__(self, build, source):
        self.violations = []
        self._typing = None
        self._build = build
        self._source = source

    @property
    def typing(self):
        if self._typing is None:
            self._typing = self._build(self._source)
            self._build = self._source = None
        return self._typing


def _name_resolver(schema):
    """The chunk grammar's name lookup for ``schema``: a name's bytes to
    the schema's own name object, or ``None`` for a name outside its
    alphabet (no type's child, no root, no open element's name)."""
    names = schema.names
    byte_ids = schema.byte_ids

    def name_of(name_bytes):
        interned = byte_ids.get(name_bytes)
        return None if interned is None else names[interned]

    return name_of


class StreamingValidator:
    """Validates documents and event streams against one
    :class:`CompiledSchema`.

    Stateless between calls; one instance may be shared across threads.
    """

    __slots__ = ("schema",)

    def __init__(self, schema):
        self.schema = schema

    def validate_events(self, events):
        """Consume an event iterable; return an XSDValidationReport.

        Folds the stream into a tree of the validator's own
        (:meth:`XMLElement.from_events
        <repro.xmlmodel.tree.XMLElement.from_events>`) and walks it.
        Stops at the root's start event when the root is undeclared,
        without advancing the stream further, mirroring the tree
        validator's early return.  Otherwise the stream is drained:
        each further root is a violation, listed last, and its subtree
        is skipped, so a malformed stream carrying a second root does
        not validate clean.  The fold reads an ambient budget's clock
        once per :data:`~repro.xmlmodel.parser._CHECK_EVENTS` events,
        the walk once per half as many elements.  Errors the stream's
        producer raises pass through unchanged.

        Raises:
            ParseError: when the stream holds no element, ends inside
                one, or closes an element that is not open.
        """
        probe("validate")
        return self._observed(lambda trace: self._walk_events(events))

    def _observed(self, run):
        """One document under one ``engine.validate`` span, with its
        ``engine.stream.*`` metrics; ``run(span)`` returns ``(report,
        elements typed)`` (the probes have already fired).

        The elements typed are ``len(report.typing)``: every element of
        a dense commit, and on a walk route the walk's records, so an
        undeclared root, the subtree of an unrecognized child and an
        event stream's further roots count none.  ``doc_ns`` observes
        one clock: the span's ``duration_ns`` when a tracer records it,
        else two ``perf_counter_ns`` reads.
        """
        trace = span("engine.validate")
        started = perf_counter_ns() if trace is NULL_SPAN else None
        with trace:
            fingerprint = self.schema.fingerprint
            if fingerprint is not None:
                trace.set_attribute("schema", fingerprint[:12])
            report, elements = run(trace)
            violations = len(report.violations)
            trace.set_attribute("elements", elements)
            trace.set_attribute("violations", violations)
        _ELEMENTS.inc(elements)
        _DOCS.inc()
        if violations:
            _VIOLATIONS.inc(violations)
        _DOC_NS.observe(trace.duration_ns if started is None
                        else perf_counter_ns() - started)
        return report

    def _walk_events(self, events):
        """Fold ``events`` into a tree and walk it; returns ``(report,
        elements typed)``.

        The stream is read one event at a time up to its first start or
        end event, so that an undeclared root stops it there.  The fold
        then reads it from its first event, under an ambient budget's
        clock (:func:`~repro.xmlmodel.parser._clocked`), and raises
        every malformed-stream error.  The report keeps the tree for its
        typing, so the walk's records are cleared off it before this
        returns: the memo goes with the handle.
        """
        schema = self.schema
        events = iter(events)
        head = []
        for event in events:
            head.append(event)
            if event[0] != "text":
                break
        if head and event[0] == "start" and event[1] not in schema.start:
            report = XSDValidationReport()
            report.violations.append(schema.undeclared_root(event[1]))
            return report, 0
        strays = []
        root = XMLElement.from_events(
            _clocked(chain(head, events), "engine.validate"), strays
        )
        handle = ValidatedDocument._walked(root, schema)
        report = _LazyReport(partial(_typing_of, schema), root)
        handle._write_violations(report.violations)
        _clear(root)
        report.violations.extend(
            f"/{stray.name}: document has more than one root element "
            f"(<{stray.name}> follows the closed root)" for stray in strays
        )
        return report, len(handle)

    def validate(self, source):
        """Validate ``source``: XML text/bytes, a document/element, or events.

        Text and UTF-8 bytes take the dense scan.  When it falls back,
        :class:`~repro.engine.incremental.ValidatedDocument`'s walk
        validates the byte tier's tree of the text, or the char tier's
        events at a root exit and when the tree fold refuses the text.
        Every other input is validated as its events
        (:meth:`validate_events`), so a tree is refolded, never walked in
        place.  The report is the same on every route.
        """
        if isinstance(source, str):
            # A lone surrogate has no UTF-8 encoding; "surrogatepass"
            # turns it into non-ASCII bytes, which the scan never
            # certifies, so such text falls back.
            return self._validate_dense(
                source.encode("utf-8", "surrogatepass"), source
            )
        if isinstance(source, (bytes, bytearray, memoryview)):
            return self.validate_bytes(source)
        return self.validate_events(as_events(source))

    def validate_bytes(self, data):
        """Validate UTF-8 document bytes without materializing a str.

        The dense fast path and the tree fold a fallback reruns on work
        on the bytes directly; only a rerun on the char tier (a root
        exit, or bytes the fold refuses) decodes them for the char-based
        parser.

        Raises:
            ParseError: on malformed documents (including bytes that are
                not valid UTF-8) and over-limit ones, exactly as
                ``validate(text)`` would.
        """
        return self._validate_dense(bytes(data), None)

    def _validate_dense(self, data, text):
        """Dense attempt with a walk on fallback; mirrors the char
        parser's eager input-size check and ``parse``/``validate`` probe
        order.

        One ``engine.validate`` span covers the document, its ``path``
        attribute ``dense`` or ``fallback``."""
        limits = resolve_limits(None)
        limit = limits.max_input_bytes
        if limit is not None and len(data) > limit:
            # Identical error to the char parser's eager size check.
            limits.check_input_size(
                text if text is not None else _decode_utf8(data)
            )
        probe("parse")
        probe("validate")
        return self._observed(
            lambda trace: self._dense_or_fallback(data, text, limits, trace)
        )

    def _dense_or_fallback(self, data, text, limits, trace):
        """The dense scan, or the walk when the scan falls back; tags
        ``trace`` with the path taken.

        A fallback walks the byte tier's tree of the document
        (:func:`~repro.xmlmodel.tokenizer.fold_tree`).  The report keeps
        the bytes for its typing, and the tree and the walk's memo go
        when this returns.  It reruns on the char tier's events only at
        a root exit, which the char tier answers after one event, and on
        what the fold refuses; the span's ``rerun`` attribute tells
        which."""
        try:
            result = self._scan_dense(data, limits)
        except FallbackRequired as fallback:
            # The raised instances are shared, and a raise chains its
            # frames onto the instance's traceback: drop them, or every
            # fallback would keep its scan's frames and document alive.
            fallback.__traceback__ = fallback.__context__ = None
            _DENSE_FALLBACKS.inc()
            trace.set_attribute("path", "fallback")
            # The probes fired once for this document; the rerun does
            # not probe again (fault injection must see one document,
            # not two).
            if fallback is not _ROOT_FALLBACK:
                try:
                    root = fold_tree(data, limits)
                except FallbackRequired as refused:
                    refused.__traceback__ = refused.__context__ = None
                else:
                    _FOLD_RERUNS.inc()
                    trace.set_attribute("rerun", "fold")
                    report = _LazyReport(self._materialize_typing, data)
                    handle = ValidatedDocument._walked(root, self.schema)
                    handle._write_violations(report.violations)
                    return report, len(handle)
            trace.set_attribute("rerun", "char")
            if text is None:
                text = _decode_utf8(data)
            return self._walk_events(_iter_events(text, limits))
        _DENSE_DOCS.inc()
        trace.set_attribute("path", "dense")
        return result

    def _materialize_typing(self, data):
        """The typing map of document bytes the validator walked.

        Walks the body chunks again (names only, no validation) and
        builds the walk's indexed paths in document order: an
        unrecognized child's subtree is skipped, untyped, as the
        reference validators skip it.  The root is declared, since a
        root exit never gets here.  Runs with unlimited parser caps: the
        document passed the call-time limits when it was validated, and
        materialization must not depend on whatever limits are ambient
        later.
        """
        schema = self.schema
        types = schema.types
        start = schema.start
        name_of = _name_resolver(schema)
        typing = {}
        stack = []  # (typed_path, ordinals, compiled type)
        skip = 0  # the open elements of a skipped subtree
        memo = {}
        memo_get = memo.get
        for chunk in islice(split_body(data, body_start(data)), 1, None):
            action = memo_get(chunk)
            if action is None:
                action = parse_chunk(chunk, _UNLIMITED, name_of)
                memo[chunk] = action
            kind = action[0]
            if skip:
                if kind == START:
                    skip += 1
                elif kind == END:
                    skip -= 1
                continue
            if kind == END:
                stack.pop()
                continue
            name = action[1]
            if stack:
                typed_path, ordinals, parent = stack[-1]
                type_id = parent.child_types[
                    parent.dfa.symbol_ids.get(name, -1)
                ]
                if type_id < 0:  # not allowed: its subtree is untyped
                    if kind == START:
                        skip = 1
                    continue
                ordinal = ordinals[name] = ordinals.get(name, 0) + 1
                typed_path = f"{typed_path}/{name}[{ordinal}]"
            else:
                type_id = start[name]
                typed_path = f"/{name}[1]"
            compiled = types[type_id]
            typing[typed_path] = compiled.name
            if kind == START:
                stack.append((typed_path, {}, compiled))
        return typing

    def _scan_dense(self, data, limits):
        """The fused tokenizer+validator loop.

        One chunk-memo lookup per tag; the memo-miss path resolves a
        tag's name bytes to the schema's own name object (``None`` for a
        name outside the alphabet, which no map holds).  A start or
        self-closing tag
        then takes one child step: its column in the open type's
        ``symbol_ids`` (a root's type from ``start``), a table step,
        the depth and attribute checks; a start tag pushes, and a
        self-closing one must accept the empty word.  *No* object
        events.  Commits only documents that are well formed, within
        limits, and valid — any violation, anomaly, or uncertainty
        raises :class:`FallbackRequired` and the walk (or the char
        tier) produces the canonical report/error; an undeclared or
        second root raises ``_ROOT_FALLBACK``, which the char tier
        answers at once.  Checks an ambient budget's clock.
        """
        schema = self.schema
        budget = current_budget()
        chunks = split_body(data, body_start(data))
        dense_types = schema.dense_types
        start_get = schema.start.get
        name_of = _name_resolver(schema)
        max_depth = limits.max_depth
        memo = {}
        memo_get = memo.get
        stack = []
        push = stack.append
        pop = stack.pop
        depth = 0
        root_done = False
        elements = 0
        # Registers of the innermost open element (its ``dense_types``
        # entry).  ``state`` is a DFA state, or the seen-mask when ``bag``
        # (its ContentBag) is set.
        state = 0
        table = None
        symbol_ids = None
        child_types = None
        acc_bits = 0
        mixed = True
        has_text = False
        open_name = None
        bag = None
        rest = iter(chunks)
        next(rest)  # chunks[0] precedes the first tag
        for first in range(1, len(chunks), _CHECK_CHUNKS):
            if budget is not None and first > 1:
                budget.check_time("engine.validate")
            for chunk in islice(rest, _CHECK_CHUNKS):
                action = memo_get(chunk)
                if action is None:
                    action = parse_chunk(chunk, limits, name_of)
                    memo[chunk] = action
                kind = action[0]
                if kind == END:
                    # Mismatched, or at depth 0, where an end tag naming
                    # no schema name meets open_name None and the accept
                    # test below refuses it (acc_bits is 0 there).
                    if action[1] != open_name:
                        raise _FALLBACK
                    if bag is None:
                        if not acc_bits >> state & 1:  # content mismatch
                            raise _FALLBACK
                    elif state & bag.required != bag.required:
                        raise _FALLBACK  # a required member missing
                    if has_text and not mixed:
                        raise _FALLBACK
                    depth -= 1
                    (state, table, symbol_ids, child_types, acc_bits, mixed,
                     has_text, open_name, bag) = pop()
                    if not depth:
                        root_done = True
                    elif action[3]:
                        has_text = True
                    continue
                # A start or self-closing tag: one child step.
                name = action[1]
                if depth:
                    column = symbol_ids.get(name, -1)
                    type_id = child_types[column]
                    if type_id < 0:  # not allowed under this type
                        raise _FALLBACK
                    if bag is None:
                        state = table[state][column]
                    else:
                        bit = 1 << column
                        if state & bit & bag.once:  # repeated once-member
                            raise _FALLBACK
                        state |= bit
                else:
                    if root_done:  # a second root
                        raise _ROOT_FALLBACK
                    type_id = start_get(name, -1)
                    if type_id < 0:  # undeclared root
                        raise _ROOT_FALLBACK
                if max_depth is not None and depth >= max_depth:
                    raise _FALLBACK
                entry = dense_types[type_id]
                attrs = action[2]
                required = entry[6]
                if attrs or required:
                    if not (required <= attrs and attrs <= entry[5]):
                        raise _FALLBACK
                elements += 1
                if kind == START:
                    push((state, table, symbol_ids, child_types, acc_bits,
                          mixed, has_text, open_name, bag))
                    depth += 1
                    (table, symbol_ids, child_types, acc_bits, mixed, __, __,
                     bag) = entry
                    state = 0
                    open_name = name
                    has_text = action[3]
                elif not entry[3] & 1:  # SELFCLOSE: the empty word must
                    raise _FALLBACK  # match (bit 0: the empty bag mask)
                elif not depth:
                    root_done = True
                elif action[3]:
                    has_text = True
        if depth or not root_done:  # unterminated element / no root
            raise _FALLBACK
        # The last chunk closed the root (a chunk after it fell back).
        check_after_root(chunks[-1])
        return _LazyReport(self._materialize_typing, data), elements


def _decode_utf8(data):
    """Decode document bytes, mapping undecodable input to ParseError."""
    try:
        return bytes(data).decode("utf-8")
    except UnicodeDecodeError as error:
        raise ParseError(f"input is not valid UTF-8: {error}")


def as_events(source):
    """Coerce text / bytes / documents / elements / iterables into an
    event stream.

    Bytes decode as UTF-8 (undecodable input raises
    :class:`~repro.errors.ParseError`); text and bytes parse under the
    ambient (else default) :class:`~repro.resilience.ParserLimits`.
    """
    if isinstance(source, str):
        return iter_events(source)
    if isinstance(source, (bytes, bytearray, memoryview)):
        return iter_events(_decode_utf8(source))
    events = getattr(source, "events", None)
    if events is not None:
        return events()
    return source


def validate_streaming(schema, source, cache=None):
    """One-shot convenience: validate ``source`` against ``schema``.

    Args:
        schema: a :class:`CompiledSchema`, or a formal
            :class:`~repro.xsd.model.XSD` (compiled through the default
            cache, so repeated calls with an equal schema are cheap).
        source: XML text, an ``XMLDocument``/``XMLElement``, or an event
            iterable.
        cache: optional :class:`~repro.engine.cache.SchemaCache` override.

    Returns:
        An :class:`~repro.xsd.validator.XSDValidationReport` agreeing with
        :func:`repro.xsd.validator.validate_xsd` on validity, typing, and
        the list of violation messages.
    """
    if not isinstance(schema, CompiledSchema):
        from repro.engine.cache import compile_cached

        schema = compile_cached(schema, cache)
    return StreamingValidator(schema).validate(source)
