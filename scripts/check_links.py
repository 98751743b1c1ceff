#!/usr/bin/env python
"""Fail on dead relative links in the repo's markdown docs.

Scans README.md, everything under docs/, and data/README.md for inline
markdown links/images and verifies every *relative* target resolves to a
real file or directory. External URLs (http/https/mailto), pure in-page
anchors (``#section``), and targets that climb out of the repo root
(GitHub-web-relative paths like the CI badge's ``../../actions/...``)
are skipped; a ``path#fragment`` target is checked for the path part
only.  A code span that names a markdown file (`` `docs/x.md` ``) is a
reference too: it must resolve next to the scanning file or from the
repo root.

CI runs this next to the docs build so a renamed page or a moved data
file cannot leave a dangling reference behind::

    python scripts/check_links.py            # exit 1 + listing on dead links
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Inline links and images: [text](target) / ![alt](target).  Reference
#: definitions and autolinks are rare enough here not to matter.
_LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

_SKIP_SCHEMES = ("http://", "https://", "mailto:", "ftp://")

#: A code span holding nothing but a path to a markdown file.
_MD_SPAN = re.compile(r"`([^`\s]+\.md)`")


def markdown_files() -> list[Path]:
    files = [ROOT / "README.md", ROOT / "data" / "README.md"]
    files.extend(sorted((ROOT / "docs").glob("**/*.md")))
    return [f for f in files if f.exists()]


def dead_links(path: Path) -> list[tuple[int, str]]:
    """``(line_number, target)`` for every unresolvable relative link."""
    dead = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        for match in _LINK.finditer(line):
            target = match.group(1)
            if target.startswith(_SKIP_SCHEMES) or target.startswith("#"):
                continue
            resolved = target.split("#", 1)[0]
            if not resolved:
                continue
            candidate = (path.parent / resolved).resolve()
            if not candidate.is_relative_to(ROOT):
                continue  # forge-relative (e.g. the CI badge), not a file
            if not candidate.exists():
                dead.append((lineno, target))
        for match in _MD_SPAN.finditer(line):
            target = match.group(1)
            if not ((path.parent / target).exists() or (ROOT / target).exists()):
                dead.append((lineno, target))
    return dead


def main() -> int:
    files = markdown_files()
    broken = 0
    for path in files:
        for lineno, target in dead_links(path):
            print(f"{path.relative_to(ROOT)}:{lineno}: dead link -> {target}")
            broken += 1
    checked = ", ".join(str(f.relative_to(ROOT)) for f in files)
    if broken:
        print(f"\n{broken} dead link(s) across {len(files)} files ({checked})")
        return 1
    print(f"all relative links resolve across {len(files)} files ({checked})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
