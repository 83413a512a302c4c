"""Serialization of XML documents back to text."""

from __future__ import annotations

_ESCAPES_TEXT = {"&": "&amp;", "<": "&lt;", ">": "&gt;"}
_ESCAPES_ATTR = {"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;"}


def escape_text(value):
    """Escape character data for element content."""
    return "".join(_ESCAPES_TEXT.get(char, char) for char in value)


def escape_attribute(value):
    """Escape an attribute value for double-quoted serialization."""
    return "".join(_ESCAPES_ATTR.get(char, char) for char in value)


def write_element(node, indent=None, level=0):
    """Serialize one element.

    Args:
        node: the :class:`~repro.xmlmodel.tree.XMLElement` to write.
        indent: indentation unit (e.g. ``"  "``) for pretty printing, or
            ``None`` for compact output.  Pretty printing is only applied to
            elements without mixed content (so round trips are lossless).
        level: current nesting depth (used with ``indent``).

    The subtree is written in document order from an explicit stack of
    open elements, so any depth is written without recursion.
    """
    pieces = []
    append = pieces.append
    stack = []  # per open element: [element, level, pretty, next child]
    while True:
        # ``node``'s start tag, or the whole of an element without content.
        attributes = "".join(
            f' {name}="{escape_attribute(value)}"'
            for name, value in node.attributes.items()
        )
        has_text = node.has_text()
        if node.children or has_text:
            append(f"<{node.name}{attributes}>")
            stack.append([node, level, indent is not None and not has_text,
                          0])
        else:
            append(f"<{node.name}{attributes}/>")
        # The text before the next child of the innermost open element
        # and that child, or its trailing text and end tag.
        while stack:
            frame = stack[-1]
            parent, level, pretty, index = frame
            append(escape_text(parent.texts[index]))
            if index < len(parent.children):
                frame[3] = index + 1
                if pretty:
                    append("\n" + indent * (level + 1))
                node = parent.children[index]
                level += 1
                break
            stack.pop()
            if pretty:
                append("\n" + indent * level)
            append(f"</{parent.name}>")
        else:
            return "".join(pieces)


def write_document(document, indent="  ", declaration=True):
    """Serialize a whole document, optionally with an XML declaration."""
    body = write_element(document.root, indent=indent)
    if declaration:
        return '<?xml version="1.0" encoding="UTF-8"?>\n' + body + "\n"
    return body + "\n"
