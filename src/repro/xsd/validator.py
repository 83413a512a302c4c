"""Typed validation of XML documents against formal XSDs (Definition 2).

A document conforms iff a *correct typing* exists: the root gets a start
type, each node a type for its own label, and each node's children (with
their types) spell a word in the node's content model.  EDC makes the
typing unique, so validation is a single top-down pass: the child's type is
determined by its name and the parent's type.
"""

from __future__ import annotations

from repro.xsd.typednames import TypedName


class XSDValidationReport:
    """Outcome of validating one document against an XSD.

    Attributes:
        violations: list of human-readable violation strings.
        typing: dict mapping each typed node to its assigned type name, in
            document order; partial when validation failed early.  Keys are
            stable XPath-style indexed paths such as
            ``/doc[1]/item[2]`` (the ordinal counts same-named siblings,
            1-based), so they survive the document tree being garbage
            collected and distinguish equal-named siblings — unlike the
            ``id(node)`` keys used previously, which could be recycled by
            the allocator and were opaque to callers.
    """

    __slots__ = ("violations", "typing")

    def __init__(self):
        self.violations = []
        self.typing = {}

    @property
    def valid(self):
        return not self.violations

    def type_at(self, path):
        """The type assigned at an indexed path, or ``None``."""
        return self.typing.get(path)


def validate_xsd(xsd, document):
    """Validate ``document`` against ``xsd``.

    Returns:
        An :class:`XSDValidationReport`; ``report.typing`` is the paper's
        (unique) typing µ restricted to the nodes that received a type.
    """
    from repro.resilience.faults import probe

    probe("validate")
    report = XSDValidationReport()
    root = document.root
    root_type = xsd.start_type(root.name)
    if root_type is None:
        report.violations.append(
            f"root element <{root.name}> is not declared "
            f"(allowed: {sorted(_start_names(xsd))})"
        )
        return report
    # Pre-order from an explicit stack, children pushed in reverse, so
    # any depth is validated without recursion.
    stack = [(root, root_type, "/" + root.name, f"/{root.name}[1]")]
    while stack:
        node, type_name, path, typed_path = stack.pop()
        report.typing[typed_path] = type_name
        model = xsd.rho[type_name]

        # Children must spell a word of the *typed* content model.  By EDC
        # the typed word is determined by the child names, so it suffices
        # to match the erased word against the erased expression -- but we
        # build the typed word anyway so nodes whose name has no type in
        # this model are reported precisely.  Each typed child's entry
        # carries its slash path and its indexed typing path.
        entries = []
        ordinals = {}
        recognized = True
        for child in node.children:
            name = child.name
            child_type = xsd.child_type(type_name, name)
            if child_type is None:
                report.violations.append(
                    f"{path}: element <{name}> is not allowed under "
                    f"<{node.name}> (type {type_name})"
                )
                recognized = False
                continue
            ordinal = ordinals[name] = ordinals.get(name, 0) + 1
            entries.append((child, child_type, f"{path}/{name}",
                            f"{typed_path}/{name}[{ordinal}]"))
        if recognized:
            word = [
                str(TypedName(entry[0].name, entry[1])) for entry in entries
            ]
            if not model.matches_children(word):
                shown = " ".join(child.name for child in node.children)
                report.violations.append(
                    f"{path}: children of <{node.name}> [{shown or 'none'}] "
                    f"do not match the content model of type {type_name}"
                )
        if not model.mixed and node.has_text():
            report.violations.append(
                f"{path}: element <{node.name}> (type {type_name}) may not "
                f"contain text"
            )
        declared = {use.name for use in model.attributes}
        for use in model.attributes:
            if use.required and use.name not in node.attributes:
                report.violations.append(
                    f"{path}: element <{node.name}> is missing required "
                    f"attribute {use.name!r}"
                )
        for attr_name in node.attributes:
            if attr_name not in declared:
                report.violations.append(
                    f"{path}: element <{node.name}> has undeclared "
                    f"attribute {attr_name!r}"
                )
        stack.extend(reversed(entries))
    return report


def _start_names(xsd):
    names = set()
    for typed in xsd.start:
        names.add(typed.element_name if isinstance(typed, TypedName)
                  else typed.split("[", 1)[0])
    return names
