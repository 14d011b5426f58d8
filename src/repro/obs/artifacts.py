"""Artifact path derivation for concurrent runs.

``--trace``, ``--spans-out`` and ``--metrics`` all historically
assumed one process per output path; two runs given the same path
silently clobber each other's JSONL.  The sweep
orchestrator runs many cells concurrently, so writers derive a unique
per-cell path with :func:`tagged_path` and readers glob the family back
together with :func:`expand_artifact_globs` (``repro report`` accepts
the same patterns).

Tags are sanitized to a path-safe alphabet so a workload label like
``B+Tree-wB`` or an override string cannot smuggle separators into the
filesystem.
"""

from __future__ import annotations

import glob as _glob
import os
import re
from typing import List, Sequence

#: Characters allowed in a path tag; everything else collapses to '-'.
_TAG_SAFE = re.compile(r"[^A-Za-z0-9._-]+")

#: Glob metacharacters that trigger expansion in readers.
_GLOB_CHARS = frozenset("*?[")


def sanitize_tag(tag: str) -> str:
    """Collapse a free-form label into a path-safe tag."""
    cleaned = _TAG_SAFE.sub("-", tag).strip("-.")
    if not cleaned:
        raise ValueError(f"tag {tag!r} has no path-safe characters")
    return cleaned


def tagged_path(path: str, tag: str) -> str:
    """Derive a per-worker/per-cell unique path from a base path.

    The tag lands before the final suffix so the family stays globbable
    by extension: ``("out.jsonl", "w3")`` → ``"out.w3.jsonl"``;
    ``("spans", "cell-0")`` → ``"spans.cell-0"``.
    """
    tag = sanitize_tag(tag)
    root, ext = os.path.splitext(path)
    return f"{root}.{tag}{ext}"


def is_glob(path: str) -> bool:
    """True when ``path`` contains glob metacharacters."""
    return any(ch in _GLOB_CHARS for ch in path)


def expand_artifact_globs(paths: Sequence[str]) -> List[str]:
    """Expand glob patterns among ``paths``; literal paths pass through.

    Matches are sorted (never directory order) so merged reports are
    deterministic; a pattern matching nothing is an error — a reader
    silently merging zero files would look like an empty run.
    """
    expanded: List[str] = []
    for path in paths:
        if is_glob(path):
            matches = sorted(_glob.glob(path))
            if not matches:
                raise FileNotFoundError(f"no artifacts match {path!r}")
            expanded.extend(matches)
        else:
            expanded.append(path)
    return expanded
