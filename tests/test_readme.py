"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```$", README.read_text(), re.M | re.S)


def test_python_blocks_run_against_the_profile_block(tmp_path, monkeypatch, capsys):
    # the first JSON block is the example profile the commands read
    (tmp_path / "profile.json").write_text(_blocks("json")[0])
    monkeypatch.chdir(tmp_path)
    scripts = _blocks("python")
    assert scripts
    for script in scripts:
        exec(compile(script, str(README), "exec"), {})
    assert capsys.readouterr().out == "1 III True\n"
