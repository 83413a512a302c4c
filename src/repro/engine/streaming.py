"""Streaming validation against a compiled schema.

The validator consumes SAX-style events (from
:func:`repro.xmlmodel.parser.iter_events` or ``XMLDocument.events()``)
and builds no tree of its own: its working state is a stack of frames,
one per open element, each holding the element's compiled type and
current content-DFA state.  A document is valid iff every frame's DFA
ends in an accepting state — the event-stream restatement of Definition
2/3's "every node's child-string matches its content model".  Text and
bytes first take the dense scan, which commits only valid documents;
when it falls back, the same loop reruns over the events of the tree
the byte tier folds from the document
(:func:`repro.xmlmodel.tokenizer.fold_tree`), and over the char tier's
events only at a root exit or when the fold refuses the document.

The report is interchangeable with the tree validator's: the same
:class:`~repro.xsd.validator.XSDValidationReport` class, the same typing
keys, and the same violation strings (the *multiset* of violations is
equal; the order differs because streaming discovers a node's
child-word mismatch at its end tag, after its children's violations,
whereas the tree validator reports parents first).  The differential test
suite pins this down.  The per-element checks and messages are the
compiled type's, shared with
:class:`~repro.engine.incremental.ValidatedDocument`, whose memo is also
where explanations come from: this loop records nothing for them.  A
stream that does not spell one element (empty, ending inside an element,
or closing one that is not open) is a :class:`~repro.errors.ParseError`.

Memory: each frame accumulates its child-name list so the mismatch
diagnostic can cite the full child-string, exactly like the tree
validator, so the loop holds O(max fanout x depth) beyond its report,
whose typing map has one entry per element.  A fallback rerun on the
fold also holds the document's tree until the loop ends (DESIGN §8).
"""

from __future__ import annotations

import time
from itertools import islice

from repro.engine.compiler import CompiledSchema
from repro.errors import ParseError
from repro.observability import default_registry
from repro.observability.budget import current_budget
from repro.observability.tracing import span
from repro.resilience.limits import ParserLimits, resolve_limits
from repro.xmlmodel.parser import _CHECK_EVENTS, _iter_events, iter_events
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
from repro.xsd.validator import XSDValidationReport

_FALLBACK = FallbackRequired()
# Raised at the scan's root exits (an undeclared or a second root): the
# char tier answers those at once, where a fold would first build the
# whole tree.
_ROOT_FALLBACK = FallbackRequired()

# The parent class's slot descriptor for ``typing``: _DenseReport shadows
# the attribute with a lazy property, so reads/writes of the underlying
# storage must go through the descriptor explicitly.
_TYPING_SLOT = XSDValidationReport.typing

_UNLIMITED = ParserLimits.unlimited()


class _DenseReport(XSDValidationReport):
    """A clean report from the dense fast path, with *lazy* typing.

    The fast path only ever commits valid documents (anything else falls
    back to the compatibility path for full diagnostics), so violations
    are always empty.  The typing map — per-element indexed paths, a
    dict and two f-strings per element — costs more to build than the
    validation itself, and throughput-oriented callers never read it;
    it is materialized on first access by re-walking the already-
    validated document bytes (the chunk memo makes the re-walk cheap).
    """

    __slots__ = ("_schema", "_data", "_offset")

    def __init__(self, schema, data, offset):
        self.violations = []
        _TYPING_SLOT.__set__(self, None)
        self._schema = schema
        self._data = data
        self._offset = offset

    @property
    def typing(self):
        value = _TYPING_SLOT.__get__(self, XSDValidationReport)
        if value is None:
            chunks = split_body(self._data, self._offset)
            value = _materialize_typing(self._schema, chunks)
            _TYPING_SLOT.__set__(self, value)
            self._data = None
        return value


def _materialize_typing(schema, chunks):
    """Rebuild the typing map the compat path would have produced.

    Walks the body chunks again (names only, no validation — the
    document is already known valid, so every name is in the schema's
    alphabet and every lookup hits) building the same indexed paths in
    the same document order as ``_run``.  Runs with unlimited parser
    caps: the document passed the call-time limits when it was
    validated, and materialization must not depend on whatever limits
    are ambient later.
    """
    names = schema.names
    types = schema.types
    start = schema.start
    byte_ids = schema.byte_ids

    def name_of(name_bytes):
        return names[byte_ids[name_bytes]]

    typing = {}
    stack = []  # (typed_path, ordinals, compiled type)
    memo = {}
    memo_get = memo.get
    for chunk in islice(chunks, 1, None):
        action = memo_get(chunk)
        if action is None:
            action = parse_chunk(chunk, _UNLIMITED, name_of)
            memo[chunk] = action
        kind = action[0]
        if kind == END:
            stack.pop()
            continue
        name = action[1]
        if stack:
            typed_path, ordinals, parent = stack[-1]
            type_id = parent.child_types[parent.dfa.symbol_ids[name]]
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


class StreamingValidator:
    """Validates event streams against one :class:`CompiledSchema`.

    Stateless between calls; one instance may be shared across threads.
    """

    __slots__ = ("schema",)

    def __init__(self, schema):
        self.schema = schema

    def validate_events(self, events):
        """Consume an event iterable; return an XSDValidationReport.

        Stops consuming as soon as the outcome is decided (undeclared
        root), mirroring the tree validator's early return.  After the
        root element closes, the remainder of the stream is drained and
        any further element event is reported as a violation — a
        malformed stream carrying a second root must not validate clean,
        matching what the tree parser would reject outright.

        Raises:
            ParseError: when the stream holds no element, ends inside
                one, or closes an element that is not open.
        """
        from repro.resilience.faults import probe

        probe("validate")
        return self._observed(lambda trace: self._run(events))

    def _observed(self, run):
        """One document under one ``engine.validate`` span, with its
        ``engine.stream.*`` metrics; ``run(span)`` returns ``(report,
        events consumed)`` (the probes have already fired)."""
        registry = default_registry()
        started = time.perf_counter_ns()
        with span("engine.validate") as trace:
            fingerprint = self.schema.fingerprint
            if fingerprint is not None:
                trace.set_attribute("schema", fingerprint[:12])
            report, consumed = run(trace)
            trace.set_attribute("events", consumed)
            trace.set_attribute("violations", len(report.violations))
        registry.counter("engine.stream.events").inc(consumed)
        registry.counter("engine.stream.docs").inc()
        if report.violations:
            registry.counter("engine.stream.violations").inc(
                len(report.violations)
            )
        registry.histogram("engine.stream.doc_ns").observe(
            time.perf_counter_ns() - started
        )
        return report

    def _run(self, events):
        """The validation loop; returns ``(report, events_consumed)``.

        Steps the same tables as :meth:`_scan_dense`, finding a name's
        column by the same ``dfa.symbol_ids.get(name, -1)``, and writes
        every diagnostic.  Checks an ambient budget's clock.
        """
        schema = self.schema
        types = schema.types
        budget = current_budget()
        report = XSDValidationReport()
        violations = report.violations
        typing = report.typing
        # Frame layout (a mutable list, tuples would cost re-allocation):
        # [compiled_type, state, name, path, typed_path, child_names,
        #  recognized, has_text, ordinals] (``state`` is a DFA state, or
        # the seen-mask for bag types).
        stack = []
        skip_depth = 0
        root_closed = False
        consumed = 0
        try:
            for event in events:
                consumed += 1
                if budget is not None and not consumed % _CHECK_EVENTS:
                    budget.check_time("engine.validate")
                kind = event[0]
                if skip_depth:
                    if kind == "start":
                        skip_depth += 1
                    elif kind == "end":
                        skip_depth -= 1
                    continue
                if kind == "start":
                    name = event[1]
                    if root_closed:
                        violations.append(
                            f"/{name}: document has more than one root "
                            f"element (<{name}> follows the closed root)"
                        )
                        skip_depth = 1
                        continue
                    if stack:
                        frame = stack[-1]
                        frame[5].append(name)
                        compiled = frame[0]
                        # A non-child's column -1 reads child_types' -1.
                        column = compiled.dfa.symbol_ids.get(name, -1)
                        type_id = compiled.child_types[column]
                        if type_id < 0:
                            violations.append(compiled.child_not_allowed(
                                frame[3], frame[2], name
                            ))
                            frame[6] = False
                            skip_depth = 1
                            continue
                        bag = compiled.bag
                        state = frame[1]
                        if bag is None:
                            state = compiled.dfa.table[state][column]
                        else:  # ContentBag.step: a repeated once-member
                            bit = 1 << column  # sets the dead bit
                            state |= (bag.dead if state & bit & bag.once
                                      else bit)
                        frame[1] = state
                        ordinals = frame[8]
                        ordinal = ordinals[name] = ordinals.get(name, 0) + 1
                        path = f"{frame[3]}/{name}"
                        typed_path = f"{frame[4]}/{name}[{ordinal}]"
                    else:
                        type_id = schema.start.get(name)
                        if type_id is None:
                            violations.append(schema.undeclared_root(name))
                            return report, consumed
                        path = "/" + name
                        typed_path = f"/{name}[1]"
                    compiled = types[type_id]
                    typing[typed_path] = compiled.name
                    stack.append([
                        compiled, 0, name, path, typed_path, [], True, False,
                        {},
                    ])
                    attributes = event[2]
                    if attributes or compiled.required_attrs:
                        violations.extend(compiled.attribute_violations(
                            path, name, attributes
                        ))
                elif kind == "end":
                    frame = stack.pop()
                    compiled = frame[0]
                    state = frame[1]
                    if frame[6] and not compiled.dfa.is_accepting(state):
                        violations.append(compiled.content_mismatch(
                            frame[3], frame[2], frame[5]
                        ))
                    if frame[7] and not compiled.mixed:
                        violations.append(
                            compiled.text_not_allowed(frame[3], frame[2])
                        )
                    if not stack:
                        # Keep draining: trailing element events (a second
                        # root) must surface as violations, not be ignored.
                        root_closed = True
                else:  # text
                    if stack and event[1].strip():
                        stack[-1][7] = True
        except IndexError as error:
            # An end event with nothing open pops the empty stack (an
            # IndexError raised inside the stream's producer is not ours).
            ours = error.__traceback__.tb_next is None
            if not ours or stack or kind != "end":
                raise
            raise ParseError("end event closes no open element") from None
        if stack or skip_depth:
            raise ParseError("event stream ends inside an open element")
        if not root_closed:
            raise ParseError("event stream holds no element")
        return report, consumed

    def validate(self, source):
        """Validate ``source``: XML text/bytes, a document/element, or events.

        Text and UTF-8 bytes take the dense fast path; all other inputs —
        and every fast-path fallback — run the event-driven compat loop,
        so the report is identical either way.  A fallback reruns that
        loop over the byte tier's tree of the text, or over the char
        tier's events at a root exit and when the tree fold refuses the
        text.
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
        """Dense attempt with compat fallback; mirrors the compat path's
        eager input-size check and ``parse``/``validate`` probe order.

        One ``engine.validate`` span covers the document, its ``path``
        attribute ``dense`` or ``fallback``."""
        from repro.resilience.faults import probe

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
        """The dense scan, or the compat loop when the scan falls back;
        tags ``trace`` with the path taken.

        The compat loop reruns over the byte tier's tree of the document
        (:func:`~repro.xmlmodel.tokenizer.fold_tree`), whose events spell
        the char tier's, and accounts the text events the tree merges.
        It reruns over the char tier's events only at a root exit, which
        the char tier answers after one event, and on what the fold
        refuses; the span's ``rerun`` attribute tells which."""
        registry = default_registry()
        try:
            result = self._scan_dense(data, limits)
        except FallbackRequired as fallback:
            # The raised instances are shared, and a raise chains its
            # frames onto the instance's traceback: drop them, or every
            # fallback would keep its scan's frames and document alive.
            fallback.__traceback__ = fallback.__context__ = None
            registry.counter("engine.dense.fallbacks").inc()
            trace.set_attribute("path", "fallback")
            # The probes fired once for this document; the compat loop
            # reruns without re-probing (fault injection must see one
            # document, not two).
            if fallback is not _ROOT_FALLBACK:
                try:
                    root, split = fold_tree(data, limits)
                except FallbackRequired as refused:
                    refused.__traceback__ = refused.__context__ = None
                else:
                    registry.counter("engine.fold.reruns").inc()
                    trace.set_attribute("rerun", "fold")
                    report, consumed = self._run(root.events())
                    return report, consumed + split
            trace.set_attribute("rerun", "char")
            if text is None:
                text = _decode_utf8(data)
            return self._run(_iter_events(text, limits))
        registry.counter("engine.dense.docs").inc()
        trace.set_attribute("path", "dense")
        return result

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
        raises :class:`FallbackRequired` and the compat path produces
        the canonical report/error; an undeclared or second root raises
        ``_ROOT_FALLBACK``, which the char tier answers at once.  Checks
        an ambient budget's clock.
        """
        schema = self.schema
        budget = current_budget()
        offset = body_start(data)
        chunks = split_body(data, offset)
        dense_types = schema.dense_types
        start_get = schema.start.get
        names = schema.names
        byte_ids = schema.byte_ids
        max_depth = limits.max_depth

        def name_of(name_bytes):
            interned = byte_ids.get(name_bytes)
            # A name outside the schema alphabet is None: no type's
            # child, no root, no open element's name.
            return None if interned is None else names[interned]

        memo = {}
        memo_get = memo.get
        stack = []
        push = stack.append
        pop = stack.pop
        depth = 0
        root_done = False
        # Exact compat-event accounting (start/end tags plus each chunk's
        # text events), so ``engine.stream.events`` agrees between paths.
        consumed = 0
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
                    if depth:
                        consumed += 1 + action[4]
                        if action[3]:
                            has_text = True
                    else:
                        consumed += 1
                        root_done = True
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
                if kind == START:
                    push((state, table, symbol_ids, child_types, acc_bits,
                          mixed, has_text, open_name, bag))
                    depth += 1
                    (table, symbol_ids, child_types, acc_bits, mixed, __, __,
                     bag) = entry
                    state = 0
                    open_name = name
                    has_text = action[3]
                    consumed += 1 + action[4]
                elif not entry[3] & 1:  # SELFCLOSE: the empty word must
                    raise _FALLBACK  # match (bit 0: the empty bag mask)
                elif depth:
                    consumed += 2 + action[4]
                    if action[3]:
                        has_text = True
                else:
                    consumed += 2
                    root_done = True
        if depth or not root_done:  # unterminated element / no root
            raise _FALLBACK
        # The last chunk closed the root (a chunk after it fell back).
        check_after_root(chunks[-1])
        return _DenseReport(schema, data, offset), consumed


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
        the multiset of violation messages.
    """
    if not isinstance(schema, CompiledSchema):
        from repro.engine.cache import compile_cached

        schema = compile_cached(schema, cache)
    return StreamingValidator(schema).validate(source)
