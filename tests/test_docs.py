"""The README's example code runs, and the rules it names are the ones the
method table calls."""

import functools
import re
from pathlib import Path

from scorebands import conformal
from scorebands.core import RatingScale
from scorebands.harness import SyntheticSpec, generate_synthetic, load_samples, write_samples

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def section(title: str) -> str:
    """The README's text under ``## title``, up to the next such heading."""
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_library_use_block_runs(tmp_path, monkeypatch, capsys):
    (block,) = re.findall(r"```python\n(.*?)```", section("Library use"), re.S)
    batch, _ = generate_synthetic(SyntheticSpec(n=300, seed=0, label_noise=0.35))
    write_samples(batch, tmp_path / "samples.jsonl", RatingScale())
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {"__name__": "readme"})
    coverage = float(capsys.readouterr().out.splitlines()[0])
    assert 0.8 <= coverage <= 1.0


def test_sample_line_block_loads(tmp_path):
    text = section("Input formats").split("**Sample lines**", 1)[1]
    block = re.search(r"```json\n(.*?)```", text, re.S).group(1)
    path = tmp_path / "samples.jsonl"
    path.write_text(block.replace("\n", " ") + "\n", encoding="utf-8")
    batch, errors = load_samples(path)
    assert len(batch) == 1 and errors == []


def test_methods_paragraph_names_the_rules_the_table_calls():
    paragraph = README.split("**Methods.**", 1)[1].split("\n\n", 1)[0]
    (listed,) = re.findall(r"the rule \(([^)]*)\)", paragraph)
    named = set(re.findall(r"`(\w+)`", listed))
    called = set()
    for row in conformal.METHODS.values():
        rule = row.rule
        while isinstance(rule, functools.partial):
            rule = rule.func
        called.add(rule.__name__)
        assert getattr(conformal, rule.__name__) is rule
    assert named == called
