"""Streaming validation against a compiled schema.

The validator consumes SAX-style events (from
:func:`repro.xmlmodel.parser.iter_events` or ``XMLDocument.events()``) and
never materializes a tree: its working state is a stack of frames, one per
open element, each holding the element's compiled type and current
content-DFA state.  A document is valid iff every frame's DFA ends in an
accepting state — the event-stream restatement of Definition 2/3's "every
node's child-string matches its content model".

The report is interchangeable with the tree validator's: the same
:class:`~repro.xsd.validator.XSDValidationReport` class, the same typing
keys, and the same violation strings (the *multiset* of violations is
equal; the order differs because streaming discovers a node's
child-word mismatch at its end tag, after its children's violations,
whereas the tree validator reports parents first).  The differential test
suite pins this down.

One deliberate deviation from pure streaming: each frame accumulates its
child-name list so the mismatch diagnostic can cite the full child-string,
exactly like the tree validator.  Memory is O(max fanout x depth), not
O(document).
"""

from __future__ import annotations

import time
from itertools import islice

from repro.engine.compiler import CompiledSchema
from repro.observability import default_registry
from repro.observability.provenance import first_divergence
from repro.observability.tracing import span
from repro.resilience.limits import ParserLimits, resolve_limits
from repro.xmlmodel.tokenizer import (
    END,
    START,
    FallbackRequired,
    body_start,
    parse_chunk,
    split_body,
)
from repro.xsd.validator import XSDValidationReport

_FALLBACK = FallbackRequired()

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
            chunks = self._data[self._offset:].split(b"<")
            value = _materialize_typing(self._schema, chunks)
            _TYPING_SLOT.__set__(self, value)
            self._data = None
        return value


def _materialize_typing(schema, chunks):
    """Rebuild the typing map the compat path would have produced.

    Walks the body chunks again (names only, no validation — the
    document is already known valid) building the same indexed paths in
    the same document order as ``_run``.  Runs with unlimited parser
    caps: the document passed the call-time limits when it was
    validated, and materialization must not depend on whatever limits
    are ambient later.
    """
    names = schema.names
    types = schema.types
    start_types = schema.start_types
    dense_types = schema.dense_types
    byte_ids = schema.byte_ids

    def name_id_of(name_bytes):
        return byte_ids[name_bytes]

    typing = {}
    stack = []  # (typed_path, ordinals, parent child_types)
    memo = {}
    memo_get = memo.get
    for chunk in islice(chunks, 1, None):
        action = memo_get(chunk)
        if action is None:
            action = parse_chunk(chunk, _UNLIMITED, name_id_of)
            memo[chunk] = action
        kind = action[0]
        if kind == END:
            stack.pop()
            continue
        interned = action[1]
        name = names[interned]
        if stack:
            typed_path, ordinals, child_types = stack[-1]
            type_id = child_types[interned]
            ordinal = ordinals[name] = ordinals.get(name, 0) + 1
            typed_path = f"{typed_path}/{name}[{ordinal}]"
        else:
            type_id = start_types[interned]
            typed_path = f"/{name}[1]"
        typing[typed_path] = types[type_id].name
        if kind == START:
            stack.append((typed_path, {}, dense_types[type_id][1]))
    return typing


class StreamingValidator:
    """Validates event streams against one :class:`CompiledSchema`.

    Stateless between calls; one instance may be shared across threads.
    """

    __slots__ = ("schema",)

    def __init__(self, schema):
        self.schema = schema

    def validate_events(self, events, provenance=None):
        """Consume an event iterable; return an XSDValidationReport.

        Stops consuming as soon as the outcome is decided (undeclared
        root), mirroring the tree validator's early return.  After the
        root element closes, the remainder of the stream is drained and
        any further element event is reported as a violation — a
        malformed stream carrying a second root must not validate clean,
        matching what the tree parser would reject outright.

        Args:
            events: the SAX-style event iterable.
            provenance: optional
                :class:`~repro.observability.ProvenanceRecorder`; when
                given, every validated element gets an
                :class:`~repro.observability.ElementProvenance` record
                (type, content-DFA state path, first-divergence reason).
                Disabled recording costs the event loop one bool test.
        """
        from repro.resilience.faults import probe

        probe("validate")
        return self._observed(lambda trace: self._run(events, provenance))

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

    def _run(self, events, recorder=None):
        """The validation loop; returns ``(report, events_consumed)``.

        Steps the same tables as :meth:`_scan_dense`, by interned name
        id, and writes every diagnostic.
        """
        schema = self.schema
        types = schema.types
        name_ids = schema.name_ids
        report = XSDValidationReport()
        violations = report.violations
        typing = report.typing
        recording = recorder is not None
        # Frame layout (a mutable list, tuples would cost re-allocation):
        # [compiled_type, state, name, path, typed_path, child_names,
        #  recognized, has_text, ordinals] (``state`` is a DFA state, or
        # the seen-mask for bag types) — plus, only while a provenance
        # recorder is attached, [state_path, entry] at indices 9/10 (the
        # hot loop never touches them otherwise).
        stack = []
        skip_depth = 0
        root_closed = False
        consumed = 0
        for event in events:
            consumed += 1
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
                        f"/{name}: document has more than one root element "
                        f"(<{name}> follows the closed root)"
                    )
                    skip_depth = 1
                    continue
                if stack:
                    frame = stack[-1]
                    frame[5].append(name)
                    compiled = frame[0]
                    interned = name_ids.get(name)
                    type_id = (-1 if interned is None
                               else compiled.child_types[interned])
                    if type_id < 0:
                        violations.append(
                            f"{frame[3]}: element <{name}> is not allowed "
                            f"under <{frame[2]}> (type {compiled.name})"
                        )
                        frame[6] = False
                        if recording:
                            frame[10].mark_invalid(
                                f"child <{name}> is not allowed under "
                                f"<{frame[2]}> (type {compiled.name})"
                            )
                        skip_depth = 1
                        continue
                    bag = compiled.dense_bag
                    state = frame[1]
                    if bag is None:
                        state = compiled.dense_rows[state][interned]
                    else:  # ContentBag.step: a repeated once-member is dead
                        bit = bag[0][interned]
                        state |= bag[3] if state & bit & bag[1] else bit
                    frame[1] = state
                    if recording:
                        frame[9].append(state)
                    ordinals = frame[8]
                    ordinal = ordinals[name] = ordinals.get(name, 0) + 1
                    path = f"{frame[3]}/{name}"
                    typed_path = f"{frame[4]}/{name}[{ordinal}]"
                else:
                    type_id = schema.start.get(name)
                    if type_id is None:
                        violations.append(
                            f"root element <{name}> is not declared "
                            f"(allowed: {list(schema.start_names)})"
                        )
                        return report, consumed
                    path = "/" + name
                    typed_path = f"/{name}[1]"
                compiled = types[type_id]
                typing[typed_path] = compiled.name
                frame = [
                    compiled, 0, name, path, typed_path, [], True, False, {}
                ]
                if recording:
                    frame.append([0])
                    frame.append(recorder.start_element(
                        path, typed_path, name, compiled.name
                    ))
                stack.append(frame)
                attributes = event[2]
                if attributes or compiled.required_attrs:
                    self._check_attributes(
                        frame, attributes, violations,
                        frame[10] if recording else None,
                    )
            elif kind == "end":
                frame = stack.pop()
                compiled = frame[0]
                state = frame[1]
                bag = compiled.dense_bag
                if bag is None:
                    accepted = compiled.acc_bits >> state & 1
                else:  # every required member seen, and not dead
                    accepted = state & (bag[2] | bag[3]) == bag[2]
                if frame[6] and not accepted:
                    shown = " ".join(frame[5])
                    violations.append(
                        f"{frame[3]}: children of <{frame[2]}> "
                        f"[{shown or 'none'}] do not match the content "
                        f"model of type {compiled.name}"
                    )
                    if recording:
                        frame[10].mark_invalid(
                            first_divergence(compiled.dfa, frame[5])
                        )
                if frame[7] and not compiled.mixed:
                    violations.append(
                        f"{frame[3]}: element <{frame[2]}> "
                        f"(type {compiled.name}) may not contain text"
                    )
                    if recording:
                        frame[10].mark_invalid(
                            f"contains text but type {compiled.name} "
                            f"is not mixed"
                        )
                if recording:
                    frame[10].dfa_states = tuple(frame[9])
                if not stack:
                    # Keep draining: trailing element events (a second
                    # root) must surface as violations, not be ignored.
                    root_closed = True
            else:  # text
                if stack and event[1].strip():
                    stack[-1][7] = True
        return report, consumed

    def _check_attributes(self, frame, attributes, violations, entry=None):
        compiled = frame[0]
        for required in compiled.required_attrs:
            if required not in attributes:
                message = (
                    f"{frame[3]}: element <{frame[2]}> is missing required "
                    f"attribute {required!r}"
                )
                violations.append(message)
                if entry is not None:
                    entry.mark_invalid(
                        f"missing required attribute {required!r}"
                    )
        declared = compiled.declared_attrs
        for attr_name in attributes:
            if attr_name not in declared:
                violations.append(
                    f"{frame[3]}: element <{frame[2]}> has undeclared "
                    f"attribute {attr_name!r}"
                )
                if entry is not None:
                    entry.mark_invalid(
                        f"undeclared attribute {attr_name!r}"
                    )

    def validate(self, source, provenance=None):
        """Validate ``source``: XML text/bytes, a document/element, or events.

        Text and UTF-8 bytes take the dense fast path when no provenance
        recorder is attached (provenance needs the per-element
        bookkeeping only the compat loop carries); all other inputs —
        and every fast-path fallback — run the event-driven compat loop,
        so the report is identical either way.
        """
        if isinstance(source, str):
            if provenance is None:
                return self._validate_dense(source.encode("utf-8"), source)
            return self.validate_events(as_events(source), provenance)
        if isinstance(source, (bytes, bytearray, memoryview)):
            return self.validate_bytes(source, provenance)
        return self.validate_events(as_events(source), provenance)

    def validate_bytes(self, data, provenance=None):
        """Validate UTF-8 document bytes without materializing a str.

        The dense fast path works on the bytes directly; only a fallback
        (or provenance recording) decodes them for the char-based
        parser.

        Raises:
            ParseError: on malformed documents (including bytes that are
                not valid UTF-8) and over-limit ones, exactly as
                ``validate(text)`` would.
        """
        data = bytes(data)
        if provenance is None:
            return self._validate_dense(data, None)
        return self.validate_events(
            as_events(_decode_utf8(data)), provenance
        )

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
        tags ``trace`` with the path taken."""
        from repro.xmlmodel.parser import _iter_events

        registry = default_registry()
        try:
            result = self._scan_dense(data, limits)
        except FallbackRequired:
            registry.counter("engine.dense.fallbacks").inc()
            trace.set_attribute("path", "fallback")
            if text is None:
                text = _decode_utf8(data)
            # The probes fired once for this document; the compat loop
            # reruns without re-probing (fault injection must see one
            # document, not two).
            return self._run(_iter_events(text, limits))
        registry.counter("engine.dense.docs").inc()
        trace.set_attribute("path", "dense")
        return result

    def _scan_dense(self, data, limits):
        """The fused tokenizer+validator loop.

        One chunk-memo lookup per tag; integer table steps; *no* object
        events.  Commits only documents that are well formed, within
        limits, and valid — any violation, anomaly, or uncertainty
        raises :class:`FallbackRequired` and the compat path produces
        the canonical report/error.
        """
        schema = self.schema
        offset = body_start(data)
        chunks = split_body(data, offset)
        dense_types = schema.dense_types
        start_types = schema.start_types
        byte_ids = schema.byte_ids
        max_depth = limits.max_depth

        def name_id_of(name_bytes):
            interned = byte_ids.get(name_bytes)
            if interned is None:  # outside the schema alphabet
                raise _FALLBACK
            return interned

        memo = {}
        memo_get = memo.get
        stack = []
        push = stack.append
        pop = stack.pop
        depth = 0
        root_done = False
        # Exact compat-event accounting (start/end tags plus non-empty
        # text runs), so ``engine.stream.events`` agrees between paths.
        consumed = 0
        # Registers of the innermost open element.  ``state`` is a DFA
        # state, or the seen-mask when ``bag`` (its ``dense_bag``) is set.
        state = 0
        rows = None
        child_types = None
        acc_bits = 0
        mixed = True
        has_text = False
        open_id = -1
        bag = None
        for chunk in islice(chunks, 1, None):
            action = memo_get(chunk)
            if action is None:
                action = parse_chunk(chunk, limits, name_id_of)
                memo[chunk] = action
            kind = action[0]
            if kind == START:
                interned = action[1]
                if depth:
                    type_id = child_types[interned]
                    if type_id < 0:  # not allowed under this type
                        raise _FALLBACK
                    if bag is None:
                        state = rows[state][interned]
                    else:
                        bit = bag[0][interned]
                        if state & bit & bag[1]:  # repeated once-member
                            raise _FALLBACK
                        state |= bit
                else:
                    if root_done:
                        raise _FALLBACK
                    type_id = start_types[interned]
                    if type_id < 0:  # undeclared root
                        raise _FALLBACK
                if max_depth is not None and depth >= max_depth:
                    raise _FALLBACK
                push((state, rows, child_types, acc_bits, mixed,
                      has_text, open_id, bag))
                depth += 1
                (rows, child_types, acc_bits, mixed, declared,
                 required, bag) = dense_types[type_id]
                state = 0
                open_id = interned
                has_text = action[3]
                consumed += 2 if action[5] else 1
                attrs = action[2]
                if attrs or required:
                    if not (required <= attrs and attrs <= declared):
                        raise _FALLBACK
            elif kind == END:
                if action[1] != open_id:  # mismatched end tag (or depth 0)
                    raise _FALLBACK
                if bag is None:
                    if not acc_bits >> state & 1:  # content-model violation
                        raise _FALLBACK
                elif state & bag[2] != bag[2]:  # a required member missing
                    raise _FALLBACK
                if has_text and not mixed:
                    raise _FALLBACK
                depth -= 1
                (state, rows, child_types, acc_bits, mixed, has_text,
                 open_id, bag) = pop()
                if depth:
                    consumed += 2 if action[5] else 1
                    if action[3]:
                        has_text = True
                else:
                    consumed += 1
                    root_done = True
                    if action[3]:  # text after the root element
                        raise _FALLBACK
            else:  # SELFCLOSE
                interned = action[1]
                if depth:
                    type_id = child_types[interned]
                    if type_id < 0:
                        raise _FALLBACK
                    if bag is None:
                        state = rows[state][interned]
                    else:
                        bit = bag[0][interned]
                        if state & bit & bag[1]:
                            raise _FALLBACK
                        state |= bit
                    if max_depth is not None and depth >= max_depth:
                        raise _FALLBACK
                else:
                    if root_done:
                        raise _FALLBACK
                    type_id = start_types[interned]
                    if type_id < 0:
                        raise _FALLBACK
                    root_done = True
                entry = dense_types[type_id]
                if not entry[2] & 1:  # empty content word not accepted
                    raise _FALLBACK  # (bit 0 is the empty mask for bags)
                attrs = action[2]
                required = entry[5]
                if attrs or required:
                    if not (required <= attrs and attrs <= entry[4]):
                        raise _FALLBACK
                consumed += 3 if depth and action[5] else 2
                if action[3]:
                    if depth:
                        has_text = True
                    else:
                        raise _FALLBACK
        if depth or not root_done:  # unterminated element / no root
            raise _FALLBACK
        return _DenseReport(schema, data, offset), consumed


def _decode_utf8(data):
    """Decode document bytes, mapping undecodable input to ParseError."""
    from repro.errors import ParseError

    try:
        return bytes(data).decode("utf-8")
    except UnicodeDecodeError as error:
        raise ParseError(f"input is not valid UTF-8: {error}")


def as_events(source):
    """Coerce text / documents / elements / iterables into an event stream."""
    from repro.xmlmodel.parser import iter_events

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
