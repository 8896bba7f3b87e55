"""README.md names only what the code has: every backticked reference to a
name in ``gradguide.autodiff``, ``trainer``, ``cli``, ``metrics``, ``fields``
or ``guidance`` resolves, every count of op kinds is the registry's, and the
kinds named or counted as having a tangent-sweep rule are the registry's, so
a removed name or kind cannot outlive its code in the docs."""

import pathlib
import re

from gradguide import autodiff as ad
from gradguide import cli, fields
from gradguide import guidance as gd
from gradguide import metrics as mt
from gradguide import trainer as tr

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

# What each prefix of a dotted reference names: the module, or one object
# of the class, whose instance attributes count as well as its class's.
_OWNERS = {
    "autodiff": ad,
    "ad": ad,
    "Tape": ad.Tape(),
    "ParamLayout": ad.ParamLayout.of([("w", (2, 3))]),
    "_Op": ad._OPS["add"],
    "trainer": tr,
    "cli": cli,
    "metrics": mt,
    "fields": fields,
    "guidance": gd,
}
_REFERENCE = re.compile(r"\b(" + "|".join(_OWNERS) + r")\.([A-Za-z_]\w*)")


def _missing_names(text: str) -> list[str]:
    """The backticked ``<prefix>.<name>`` references of ``text`` (markdown)
    whose name its owner lacks; fenced code blocks are not read, nor is a
    config path (a ``guidance.`` name after a ``.``)."""
    prose = re.sub(r"^```.*?^```", "", text, flags=re.M | re.S)
    missing = []
    for span in re.findall(r"`([^`]+)`", prose):
        for m in _REFERENCE.finditer(span):
            prefix, name = m.groups()
            if prefix == "guidance" and span[:m.start()].endswith("."):
                continue    # a config path, such as train.guidance.tau
            if not hasattr(_OWNERS[prefix], name):
                missing.append(f"{prefix}.{name}")
    return missing


def _swept_kind_sets(text: str) -> list[set[str]]:
    """The backticked kinds of each "kind with a tangent-sweep rule (...)"
    in ``text``, a line break allowed between the words."""
    return [set(re.findall(r"`(\w+)`", kinds))
            for kinds in re.findall(r"kind\s+with\s+a\s+tangent-sweep\s+rule\s+\(([^)]*)\)",
                                    text)]


_NUMBERS = {word: n for n, word in enumerate(
    "zero one two three four five six seven eight nine ten".split())}


def _swept_kind_counts(text: str) -> list[int]:
    """Each N of "N kinds `grad_and_hvp` sweeps" and "N kinds have one" in
    ``text``, N a digit or a word, a line break allowed between the words."""
    spelled = re.findall(r"\b(\w+)\s+kinds\s+(?:`grad_and_hvp`\s+sweeps|have\s+one)\b", text)
    return [int(n) if n.isdigit() else _NUMBERS[n.lower()] for n in spelled]


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


def test_readme_names_the_kinds_grad_and_hvp_sweeps():
    named = _swept_kind_sets(README.read_text(encoding="utf-8"))
    swept = {kind for kind, op in ad._OPS.items() if op.sweep is not None}
    assert named and all(kinds == swept for kinds in named)


def test_readme_counts_the_kinds_grad_and_hvp_sweeps():
    counts = _swept_kind_counts(README.read_text(encoding="utf-8"))
    swept = [kind for kind, op in ad._OPS.items() if op.sweep is not None]
    assert counts and set(counts) == {len(swept)}


def test_a_count_of_swept_kinds_is_read():
    text = ("the four kinds\n`grad_and_hvp` sweeps, and 2 kinds `grad_and_hvp` sweeps.\n"
            "Three kinds have\none; five kinds have two, and six kinds `hvp` sweeps.")
    assert _swept_kind_counts(text) == [4, 2, 3]


def test_a_named_set_of_swept_kinds_is_read():
    text = ("only a kind with a tangent-sweep\nrule (`matmul`, `exp`) here, and a kind with\n"
            "a tangent-sweep rule (`dense`)")
    assert _swept_kind_sets(text) == [{"matmul", "exp"}, {"dense"}]


def test_a_removed_name_in_backticks_is_found():
    text = ("Kept by `autodiff.keep_adjoints(f)` on `Tape.parts`, read by `_Op.sweep`\n"
            "and `gradguide.autodiff.backward`; `ParamLayout.views` and `Tape.records`\n"
            "exist, `ParamLayout.nope` does not, and autodiff.unquoted is prose.\n"
            "Ops: (`ad.add(a, b)`, `ad.softmax(a, c)`), 18 op\nkinds; `load.x` is no op.\n"
            "```\nautodiff.fenced_code\n```\n")
    assert _missing_names(text) == ["autodiff.keep_adjoints", "Tape.parts", "ParamLayout.nope",
                                    "ad.softmax"]
    assert _op_kind_counts(text) == [18]


def test_a_removed_module_name_in_backticks_is_found():
    text = ("`trainer.train(...)` and `trainer.nope`; `gradguide.cli.main` and\n"
            "`cli._mark_repeated_keys`; `metrics.summarize`, `metrics.gone`; `fields.Range`,\n"
            "`fields.check_range`; `guidance.norm`, `guidance.gone`, while `train.guidance.tau`\n"
            "and `train.guidance.nope` are config paths.\n")
    assert _missing_names(text) == ["trainer.nope", "cli._mark_repeated_keys", "metrics.gone",
                                    "fields.check_range", "guidance.gone"]
