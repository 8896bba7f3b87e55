"""README.md names only what the code has: every backticked reference to a
name in ``gradguide.autodiff`` resolves, and every count of op kinds is the
registry's, so a removed name or kind cannot outlive its code in the docs."""

import pathlib
import re

from gradguide import autodiff as ad

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

# What each prefix of a dotted reference names: the module, or one object
# of the class, whose instance attributes count as well as its class's.
_OWNERS = {
    "autodiff": ad,
    "ad": ad,
    "Tape": ad.Tape(),
    "ParamLayout": ad.ParamLayout.of([("w", (2, 3))]),
    "_Op": ad._OPS["add"],
}
_REFERENCE = re.compile(r"\b(" + "|".join(_OWNERS) + r")\.([A-Za-z_]\w*)")


def _missing_names(text: str) -> list[str]:
    """The backticked ``<prefix>.<name>`` references of ``text`` (markdown)
    whose name its owner lacks; fenced code blocks are not read."""
    prose = re.sub(r"^```.*?^```", "", text, flags=re.M | re.S)
    missing = []
    for span in re.findall(r"`([^`]+)`", prose):
        for prefix, name in _REFERENCE.findall(span):
            if not hasattr(_OWNERS[prefix], name):
                missing.append(f"{prefix}.{name}")
    return missing


def _op_kind_counts(text: str) -> list[int]:
    """Each N of "N op kinds" in ``text``, a line break allowed between the
    words."""
    return [int(n) for n in re.findall(r"\b(\d+)\s+op\s+kinds\b", text)]


def test_readme_names_only_autodiff_names_that_exist():
    text = README.read_text(encoding="utf-8")
    assert _REFERENCE.search(text)
    assert _missing_names(text) == []


def test_readme_counts_the_registered_op_kinds():
    counts = _op_kind_counts(README.read_text(encoding="utf-8"))
    assert counts and set(counts) == {len(ad.OP_KINDS)}


def test_a_removed_name_in_backticks_is_found():
    text = ("Kept by `autodiff.keep_adjoints(f)` on `Tape.parts`, read by `_Op.sweep`\n"
            "and `gradguide.autodiff.backward`; `ParamLayout.views` and `Tape.records`\n"
            "exist, `ParamLayout.nope` does not, and autodiff.unquoted is prose.\n"
            "Ops: (`ad.add(a, b)`, `ad.softmax(a, c)`), 18 op\nkinds; `load.x` is no op.\n"
            "```\nautodiff.fenced_code\n```\n")
    assert _missing_names(text) == ["autodiff.keep_adjoints", "Tape.parts", "ParamLayout.nope",
                                    "ad.softmax"]
    assert _op_kind_counts(text) == [18]
