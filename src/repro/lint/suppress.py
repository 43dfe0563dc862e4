"""Inline suppression comments.

Two forms, both justified in prose after the codes (the prose is for
reviewers; the parser only reads the code list):

* line-level — append to the flagged line::

      t0 = time.time()  # repro-lint: disable=RL101 (wall time feeds a log label only)

* file-level — anywhere in the file, conventionally near the top::

      # repro-lint: disable-file=RL201 (built once per run; never on the hot path)

``disable=all`` suppresses every rule at that granularity.  Diagnostics
anchor to the *first* line of their statement, so for a multi-line call
the comment belongs on the opening line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Mapping

_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*disable(?P<filewide>-file)?=(?P<codes>[A-Za-z0-9_,\s]+)"
)
_CODE_RE = re.compile(r"^(RL\d+|all)$")


@dataclass(frozen=True)
class Suppressions:
    """Parsed suppression directives for one source file."""

    by_line: Mapping[int, FrozenSet[str]] = field(default_factory=dict)
    file_wide: FrozenSet[str] = frozenset()

    def is_suppressed(self, code: str, line: int) -> bool:
        """True when ``code`` is disabled at ``line`` (or file-wide)."""
        active = self.file_wide | self.by_line.get(line, frozenset())
        return code in active or "all" in active


def parse_suppressions(source: str) -> Suppressions:
    """Extract every ``repro-lint: disable`` directive from ``source``.

    Unknown tokens inside the code list are ignored (they are assumed
    to be the start of a prose justification); a directive whose list
    contains no valid code suppresses nothing.
    """
    by_line: Dict[int, FrozenSet[str]] = {}
    file_wide: FrozenSet[str] = frozenset()
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        codes = frozenset(
            token
            for token in (raw.strip() for raw in match.group("codes").split(","))
            if _CODE_RE.match(token)
        )
        if not codes:
            continue
        if match.group("filewide"):
            file_wide |= codes
        else:
            by_line[lineno] = by_line.get(lineno, frozenset()) | codes
    return Suppressions(by_line=by_line, file_wide=file_wide)
