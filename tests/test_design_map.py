"""DESIGN.md §3's module map names every module under ``src/repro``.

The map is the reader's index to the code: a module added without an
entry, or an entry left behind by a deletion, fails here.
"""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "repro"
# A map line opens with its names (``regex/``, ``parser.py``, or several
# files such as ``nfa.py dfa.py``); the description follows.
_NAME = re.compile(r"\w+(\.py|/)$")


def _map_lines():
    text = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    section = text.split("\n## 3. ", 1)[1].split("\n## ", 1)[0]
    return section.split("```", 2)[1].splitlines()


def _mapped():
    """``package/module.py`` (``module.py`` at the top) for every file
    the map names: packages at indent 2, their files at indent 4."""
    named = set()
    package = ""
    for line in _map_lines():
        indent = len(line) - len(line.lstrip())
        if indent not in (2, 4):
            continue  # the src/repro/ line and description continuations
        for token in line.split():
            if not _NAME.match(token):
                break
            if token.endswith("/"):
                package = token
            else:
                named.add(package + token if indent == 4 else token)
    return named


def _modules():
    return {
        path.relative_to(SOURCE).as_posix()
        for path in SOURCE.rglob("*.py")
        if path.name != "__init__.py"
    }


def test_every_module_is_in_the_map():
    assert sorted(_modules() - _mapped()) == []


def test_every_mapped_module_exists():
    assert sorted(_mapped() - _modules()) == []
