"""Every script and data file that CI or the verify recipe names must exist.

A deleted benchmark otherwise stays referenced until a CI run (or someone
following the recipe) trips over it.  JSON names the same document writes
itself (``--output X.json``, ``--json X.json``) are outputs, not references.
"""

import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

DOCUMENTS = (".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md")

_SCRIPT = re.compile(r"(?:benchmarks|examples)/[\w/*.-]*\.py")
_JSON = re.compile(r"[\w/*.-]+\.json")
_WRITTEN = re.compile(r"--(?:output|json)\s+([\w/.-]+\.json)")


def _references(text: str) -> set[str]:
    written = set(_WRITTEN.findall(text))
    return set(_SCRIPT.findall(text)) | (set(_JSON.findall(text)) - written)


@pytest.mark.parametrize("document", DOCUMENTS)
def test_every_named_path_exists(document):
    references = _references((REPO_ROOT / document).read_text())
    assert references, f"{document} names no paths: the extraction is broken"
    missing = sorted(ref for ref in references if not any(REPO_ROOT.glob(ref)))
    assert not missing, f"{document} names paths that do not exist: {missing}"


def test_outputs_are_not_mistaken_for_references():
    text = "run: tool --output OUT.json\n  path: OUT.json\n  python benchmarks/gone.py in.json"
    assert _references(text) == {"benchmarks/gone.py", "in.json"}
